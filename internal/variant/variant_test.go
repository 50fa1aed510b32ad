package variant

import (
	"testing"
	"testing/quick"

	"vdbscan/internal/dbscan"
)

func p(eps float64, mp int) dbscan.Params { return dbscan.Params{Eps: eps, MinPts: mp} }

func TestCanReuse(t *testing.T) {
	cases := []struct {
		vi, vj dbscan.Params
		want   bool
	}{
		{p(0.6, 20), p(0.2, 32), true},  // paper's example
		{p(0.6, 20), p(0.6, 24), true},  // paper's preferred source
		{p(0.2, 32), p(0.6, 20), false}, // reverse direction invalid
		{p(0.4, 8), p(0.4, 8), true},    // identical params reusable
		{p(0.4, 16), p(0.4, 8), false},  // larger minpts cannot reuse smaller
		{p(0.3, 8), p(0.4, 8), false},   // smaller eps cannot reuse larger
	}
	for _, c := range cases {
		if got := CanReuse(c.vi, c.vj); got != c.want {
			t.Errorf("CanReuse(%v, %v) = %v, want %v", c.vi, c.vj, got, c.want)
		}
	}
}

func TestCanReuseTransitive(t *testing.T) {
	f := func(e1, e2, e3 float64, m1, m2, m3 uint8) bool {
		a, b, c := p(e1, int(m1)), p(e2, int(m2)), p(e3, int(m3))
		if CanReuse(a, b) && CanReuse(b, c) {
			return CanReuse(a, c)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortCanonical(t *testing.T) {
	vs := New([]dbscan.Params{
		p(0.6, 20), p(0.2, 24), p(0.2, 32), p(0.4, 32), p(0.2, 20), p(0.6, 32),
	})
	Sort(vs)
	want := []dbscan.Params{
		p(0.2, 32), p(0.2, 24), p(0.2, 20), p(0.4, 32), p(0.6, 32), p(0.6, 20),
	}
	for i := range want {
		if vs[i].Params != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i].Params, want[i])
		}
	}
}

func TestSortPreservesIDs(t *testing.T) {
	params := []dbscan.Params{p(0.6, 4), p(0.2, 4)}
	vs := New(params)
	Sort(vs)
	if vs[0].ID != 1 || vs[1].ID != 0 {
		t.Errorf("IDs after sort = %d,%d", vs[0].ID, vs[1].ID)
	}
	// Sorted() must not mutate its input.
	orig := New(params)
	_ = Sorted(orig)
	if orig[0].Params != p(0.6, 4) {
		t.Error("Sorted mutated its input")
	}
}

func TestSortDeterministicWithDuplicates(t *testing.T) {
	vs := New([]dbscan.Params{p(0.2, 4), p(0.2, 4), p(0.2, 4)})
	Sort(vs)
	for i, v := range vs {
		if v.ID != i {
			t.Fatalf("duplicate params should keep ID order, got %v", vs)
		}
	}
}

func TestProduct(t *testing.T) {
	// Paper's example: A = {0.1, 0.2}, B = {1, 2} ->
	// {(0.1,1), (0.1,2), (0.2,1), (0.2,2)}.
	vs := Product([]float64{0.1, 0.2}, []int{1, 2})
	want := []dbscan.Params{p(0.1, 1), p(0.1, 2), p(0.2, 1), p(0.2, 2)}
	if len(vs) != len(want) {
		t.Fatalf("len = %d", len(vs))
	}
	for i := range want {
		if vs[i].Params != want[i] || vs[i].ID != i {
			t.Fatalf("product[%d] = %v", i, vs[i])
		}
	}
}

func TestProductScenarioSizes(t *testing.T) {
	// S2: A={0.2,0.4,0.6}, B={4,8,...,32} -> |V| = 24.
	B := []int{}
	for mp := 4; mp <= 32; mp += 4 {
		B = append(B, mp)
	}
	if got := len(Product([]float64{0.2, 0.4, 0.6}, B)); got != 24 {
		t.Errorf("S2 |V| = %d, want 24", got)
	}
	// S3 V1: A={0.2,0.3,0.4}, B={10,15,...,100} -> |V| = 57.
	B = B[:0]
	for mp := 10; mp <= 100; mp += 5 {
		B = append(B, mp)
	}
	if got := len(Product([]float64{0.2, 0.3, 0.4}, B)); got != 57 {
		t.Errorf("S3 V1 |V| = %d, want 57", got)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(nil); err == nil {
		t.Error("empty set should fail")
	}
	if err := Validate(New([]dbscan.Params{p(0.2, 4)})); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := Validate(New([]dbscan.Params{p(0.2, 4), p(-1, 4)})); err == nil {
		t.Error("invalid eps accepted")
	}
}

func TestNormalizer(t *testing.T) {
	vs := New([]dbscan.Params{p(0.2, 4), p(0.6, 32)})
	n := NewNormalizer(vs)
	// Full-range distance = 1 + 1 = 2.
	if d := n.Dist(p(0.2, 4), p(0.6, 32)); d != 2 {
		t.Errorf("full-range dist = %g, want 2", d)
	}
	if d := n.Dist(p(0.2, 4), p(0.2, 4)); d != 0 {
		t.Errorf("self dist = %g", d)
	}
	// Symmetry.
	if n.Dist(p(0.2, 10), p(0.5, 20)) != n.Dist(p(0.5, 20), p(0.2, 10)) {
		t.Error("distance not symmetric")
	}
}

func TestNormalizerDegenerateRanges(t *testing.T) {
	// All same eps: distance falls back to raw minpts difference.
	vs := New([]dbscan.Params{p(0.2, 4), p(0.2, 8)})
	n := NewNormalizer(vs)
	if d := n.Dist(p(0.2, 4), p(0.2, 8)); d != 1 {
		t.Errorf("degenerate-eps dist = %g, want 1", d)
	}
	// Empty variant list must not panic.
	_ = NewNormalizer(nil)
}

func TestVariantString(t *testing.T) {
	v := Variant{ID: 3, Params: p(0.2, 32)}
	if v.String() != "v3(0.2, 32)" {
		t.Errorf("String = %q", v.String())
	}
}
