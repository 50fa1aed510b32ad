package gridindex_test

import (
	"math"
	"math/rand"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
)

func blobs(k, m, noise int, extent, sigma float64, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, k*m+noise)
	for c := 0; c < k; c++ {
		cx, cy := rnd.Float64()*extent, rnd.Float64()*extent
		for i := 0; i < m; i++ {
			pts = append(pts, geom.Point{
				X: cx + rnd.NormFloat64()*sigma,
				Y: cy + rnd.NormFloat64()*sigma,
			})
		}
	}
	for i := 0; i < noise; i++ {
		pts = append(pts, geom.Point{X: rnd.Float64() * extent, Y: rnd.Float64() * extent})
	}
	return pts
}

func coords(pts []geom.Point) (xs, ys []float64) {
	xs = make([]float64, len(pts))
	ys = make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys
}

func TestFreezeValidation(t *testing.T) {
	if _, err := gridindex.Freeze([]float64{1}, nil, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := gridindex.Freeze(nil, nil, 0); err == nil {
		t.Error("side=0 accepted")
	}
	if _, err := gridindex.Freeze([]float64{math.NaN()}, []float64{0}, 1); err == nil {
		t.Error("NaN coordinate accepted")
	}
	f, err := gridindex.Freeze(nil, nil, 1)
	if err != nil || f.Len() != 0 {
		t.Fatalf("empty freeze: %v %v", f, err)
	}
	out, c, n := f.EpsSearch(geom.Point{X: 0, Y: 0}, 1, nil)
	if len(out) != 0 || c != 0 || n != 0 {
		t.Errorf("empty search: %v %d %d", out, c, n)
	}
}

func TestFlatEpsSearchMatchesLinear(t *testing.T) {
	pts := blobs(3, 400, 200, 40, 0.9, 11)
	xs, ys := coords(pts)
	const side = 1.5
	f, err := gridindex.Freeze(xs, ys, side)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(12))
	var dst []int32
	seen := make(map[int32]bool)
	for trial := 0; trial < 200; trial++ {
		q := geom.Point{X: rnd.Float64()*50 - 5, Y: rnd.Float64()*50 - 5}
		// Sweep eps through the 3×3 regime and beyond the side (widened
		// block), including eps = side exactly.
		eps := side * (0.2 + 2.3*rnd.Float64())
		if trial%10 == 0 {
			eps = side
		}
		dst, _, _ = f.EpsSearch(q, eps, dst[:0])
		for k := range seen {
			delete(seen, k)
		}
		for _, i := range dst {
			if seen[i] {
				t.Fatalf("duplicate index %d in result", i)
			}
			seen[i] = true
		}
		want := 0
		for _, p := range pts {
			if q.DistSq(p) <= eps*eps {
				want++
			}
		}
		if len(dst) != want {
			t.Fatalf("trial %d: EpsSearch(%v, %g) = %d hits, want %d", trial, q, eps, len(dst), want)
		}
		for _, i := range dst {
			if q.DistSq(pts[i]) > eps*eps {
				t.Fatalf("trial %d: index %d outside eps", trial, i)
			}
		}
	}
}

// TestMetricsAndStats pins the two accounts a Flat gives of itself: the
// candidate count of a search bounds its hits and is what the cells of the
// scanned block hold, and Stats describes the CSR arrays.
func TestMetricsAndStats(t *testing.T) {
	pts := blobs(2, 200, 50, 20, 0.5, 5)
	xs, ys := coords(pts)
	f, err := gridindex.Freeze(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pts {
		out, candidates, nodes := f.EpsSearch(q, 1, nil)
		if len(out) < 1 || candidates < len(out) || nodes < 1 || nodes > 9 {
			t.Fatalf("search(%v): %d hits, %d candidates, %d cells", q, len(out), candidates, nodes)
		}
	}
	gs := f.Stats()
	if gs.Cells <= 0 || gs.NonEmpty <= 0 || gs.MaxPerCell <= 0 {
		t.Errorf("stats = %+v", gs)
	}
	if gs.Cols*gs.Rows != gs.Cells {
		t.Errorf("cell count mismatch: %+v", gs)
	}
}

func TestSinglePointAndDuplicates(t *testing.T) {
	f, err := gridindex.Freeze([]float64{5}, []float64{5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, _ := f.EpsSearch(geom.Point{X: 5, Y: 5}, 1, nil); len(out) != 1 || out[0] != 0 {
		t.Fatalf("single: %v", out)
	}
	dup := make([]float64, 30)
	for i := range dup {
		dup[i] = 2
	}
	if f, err = gridindex.Freeze(dup, dup, 0.5); err != nil {
		t.Fatal(err)
	}
	if out, _, _ := f.EpsSearch(geom.Point{X: 2, Y: 2}, 0.5, nil); len(out) != 30 {
		t.Fatalf("duplicates: %d of 30 found", len(out))
	}
}

func TestFreezeCapsCellCount(t *testing.T) {
	xs := []float64{0, 0.5, 1e7}
	ys := []float64{0, 0.25, 1e7}
	f, err := gridindex.Freeze(xs, ys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Cells > gridindex.MaxCells {
		t.Fatalf("cells = %d exceeds cap %d", s.Cells, gridindex.MaxCells)
	}
	out, _, _ := f.EpsSearch(geom.Point{X: 0, Y: 0}, 1e-4, nil)
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("capped search = %v, want [0]", out)
	}
}

// TestFlatEpsSearchZeroAlloc mirrors rtree's TestEpsSearchZeroAlloc: once
// the destination buffer has warmed, grid searches never touch the heap.
func TestFlatEpsSearchZeroAlloc(t *testing.T) {
	pts := blobs(3, 500, 100, 30, 0.8, 31)
	xs, ys := coords(pts)
	f, err := gridindex.Freeze(xs, ys, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 0, len(pts))
	queries := pts[:64]
	allocs := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			dst, _, _ = f.EpsSearch(q, 1.0, dst[:0])
		}
	})
	if allocs != 0 {
		t.Fatalf("EpsSearch allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzGridSearch mirrors rtree's FuzzSearch: random point sets and
// queries, grid Flat checked against the linear oracle.
func FuzzGridSearch(f *testing.F) {
	f.Add(int64(1), uint8(50), 1.0, 0.5, 0.5)
	f.Add(int64(7), uint8(200), 0.3, 10.0, -3.0)
	f.Add(int64(42), uint8(13), 2.5, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps, qx, qy float64) {
		if !(eps > 0) || eps > 1e6 || math.Abs(qx) > 1e6 || math.Abs(qy) > 1e6 {
			t.Skip()
		}
		rnd := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, int(n))
		for i := range pts {
			pts[i] = geom.Point{X: rnd.Float64()*20 - 10, Y: rnd.Float64()*20 - 10}
		}
		xs, ys := coords(pts)
		// Freeze with a side smaller than eps half the time to exercise
		// the widened block.
		side := eps
		if seed%2 == 0 {
			side = eps/3 + 1e-9
		}
		fg, err := gridindex.Freeze(xs, ys, side)
		if err != nil {
			t.Fatal(err)
		}
		q := geom.Point{X: qx, Y: qy}
		got, _, _ := fg.EpsSearch(q, eps, nil)
		want := 0
		for _, p := range pts {
			if q.DistSq(p) <= eps*eps {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("flat grid: %d hits, oracle %d (n=%d eps=%g side=%g)", len(got), want, n, eps, side)
		}
		for _, i := range got {
			if q.DistSq(pts[i]) > eps*eps {
				t.Fatalf("index %d outside eps", i)
			}
		}
	})
}

// BenchmarkGridEpsSearch measures the CSR grid search on a TEC-like
// clustered workload.
func BenchmarkGridEpsSearch(b *testing.B) {
	pts := blobs(20, 5000, 10000, 300, 2.0, 99)
	xs, ys := coords(pts)
	const eps = 4.0
	f, err := gridindex.Freeze(xs, ys, eps)
	if err != nil {
		b.Fatal(err)
	}
	queries := pts[:1024]
	dst := make([]int32, 0, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		dst, _, _ = f.EpsSearch(q, eps, dst[:0])
	}
}
