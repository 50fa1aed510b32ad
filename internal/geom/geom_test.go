package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 0}, Point{0, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); math.Abs(got-c.want*c.want) > 1e-9 {
			t.Errorf("DistSq(%v, %v) = %g, want %g", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWithin(t *testing.T) {
	p := Point{0, 0}
	if !p.Within(Point{1, 0}, 1) {
		t.Error("point at exactly eps should be within (inclusive)")
	}
	if p.Within(Point{1.0001, 0}, 1) {
		t.Error("point beyond eps should not be within")
	}
	if !p.Within(p, 0) {
		t.Error("a point is within eps=0 of itself")
	}
}

func TestEmptyMBB(t *testing.T) {
	e := EmptyMBB()
	if !e.IsEmpty() {
		t.Fatal("EmptyMBB should be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty area = %g, want 0", e.Area())
	}
	if e.ContainsPoint(Point{0, 0}) {
		t.Error("empty box contains no points")
	}
	if e.Intersects(MBBOf(Point{0, 0})) {
		t.Error("empty box intersects nothing")
	}
	// Union with empty is identity.
	b := MBB{0, 0, 2, 3}
	if got := e.Union(b); got != b {
		t.Errorf("empty.Union(b) = %v, want %v", got, b)
	}
	if got := b.Union(e); got != b {
		t.Errorf("b.Union(empty) = %v, want %v", got, b)
	}
	// Expanding the empty box keeps it empty.
	if !e.Expand(5).IsEmpty() {
		t.Error("expanded empty box should stay empty")
	}
}

func TestMBBOfPoints(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	b := MBBOfPoints(pts)
	want := MBB{MinX: -2, MinY: -1, MaxX: 4, MaxY: 5}
	if b != want {
		t.Errorf("MBBOfPoints = %v, want %v", b, want)
	}
	for _, p := range pts {
		if !b.ContainsPoint(p) {
			t.Errorf("box %v should contain %v", b, p)
		}
	}
	if got := MBBOfPoints(nil); !got.IsEmpty() {
		t.Errorf("MBBOfPoints(nil) = %v, want empty", got)
	}
}

func TestQueryMBB(t *testing.T) {
	b := QueryMBB(Point{10, 20}, 0.5)
	want := MBB{MinX: 9.5, MinY: 19.5, MaxX: 10.5, MaxY: 20.5}
	if b != want {
		t.Errorf("QueryMBB = %v, want %v", b, want)
	}
	// Every point within eps of the center must be inside the query box.
	f := func(dx, dy float64) bool {
		dx = math.Mod(dx, 0.5)
		dy = math.Mod(dy, 0.5)
		if math.IsNaN(dx) || math.IsNaN(dy) {
			return true
		}
		p := Point{10 + dx, 20 + dy}
		if Point.Dist(Point{10, 20}, p) <= 0.5 {
			return b.ContainsPoint(p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpand(t *testing.T) {
	b := MBB{0, 0, 1, 1}
	e := b.Expand(2)
	want := MBB{-2, -2, 3, 3}
	if e != want {
		t.Errorf("Expand = %v, want %v", e, want)
	}
	if !e.ContainsMBB(b) {
		t.Error("expanded box must contain original")
	}
}

func TestIntersects(t *testing.T) {
	a := MBB{0, 0, 2, 2}
	cases := []struct {
		b    MBB
		want bool
	}{
		{MBB{1, 1, 3, 3}, true},     // overlap
		{MBB{2, 2, 4, 4}, true},     // touching corner (inclusive)
		{MBB{3, 3, 4, 4}, false},    // disjoint
		{MBB{0.5, 0.5, 1, 1}, true}, // contained
		{MBB{-1, 0, 0, 2}, true},    // touching edge
		{MBB{0, 3, 2, 4}, false},    // disjoint in y only
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects not symmetric for %v, %v", a, c.b)
		}
	}
}

func TestUnionProperties(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	randBox := func() MBB {
		x, y := rnd.Float64()*100, rnd.Float64()*100
		return MBB{x, y, x + rnd.Float64()*10, y + rnd.Float64()*10}
	}
	for i := 0; i < 200; i++ {
		a, b := randBox(), randBox()
		u := a.Union(b)
		if !u.ContainsMBB(a) || !u.ContainsMBB(b) {
			t.Fatalf("union %v of %v,%v does not contain operands", u, a, b)
		}
		if u != b.Union(a) {
			t.Fatalf("union not commutative: %v vs %v", u, b.Union(a))
		}
		if u.Area() < a.Area() || u.Area() < b.Area() {
			t.Fatalf("union area shrank")
		}
	}
}

func TestContainsMBB(t *testing.T) {
	outer := MBB{0, 0, 10, 10}
	if !outer.ContainsMBB(MBB{1, 1, 9, 9}) {
		t.Error("should contain inner box")
	}
	if !outer.ContainsMBB(outer) {
		t.Error("box contains itself")
	}
	if outer.ContainsMBB(MBB{5, 5, 11, 9}) {
		t.Error("should not contain partially-outside box")
	}
	if outer.ContainsMBB(EmptyMBB()) {
		t.Error("containment of the empty box is defined false")
	}
}

func TestAreaPerimeterCenter(t *testing.T) {
	b := MBB{1, 2, 4, 6}
	if got := b.Area(); got != 12 {
		t.Errorf("Area = %g, want 12", got)
	}
	// Degenerate box (a line): zero area.
	if d := (MBB{1, 1, 1, 5}); d.Area() != 0 {
		t.Errorf("degenerate box: area=%g", d.Area())
	}
}

func TestMinDistSq(t *testing.T) {
	b := MBB{0, 0, 2, 2}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},  // inside
		{Point{2, 2}, 0},  // on corner
		{Point{3, 2}, 1},  // right of box
		{Point{-2, 1}, 4}, // left of box
		{Point{3, 3}, 2},  // diagonal from corner
		{Point{1, -3}, 9}, // below
	}
	for _, c := range cases {
		if got := b.MinDistSq(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDistSq(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestMinDistSqLowerBoundsTrueDist(t *testing.T) {
	// MinDistSq must never exceed the squared distance to any point in the box.
	rnd := rand.New(rand.NewSource(42))
	b := MBB{10, 10, 20, 30}
	for i := 0; i < 500; i++ {
		q := Point{10 + rnd.Float64()*10, 10 + rnd.Float64()*20}
		p := Point{rnd.Float64()*60 - 15, rnd.Float64()*60 - 15}
		if b.MinDistSq(p) > p.DistSq(q)+1e-9 {
			t.Fatalf("MinDistSq(%v)=%g exceeds dist² to interior point %v (%g)",
				p, b.MinDistSq(p), q, p.DistSq(q))
		}
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1, 2}).String(); s != "(1, 2)" {
		t.Errorf("Point.String = %q", s)
	}
	if s := EmptyMBB().String(); s != "MBB(empty)" {
		t.Errorf("empty MBB String = %q", s)
	}
	if s := (MBB{0, 0, 1, 1}).String(); s == "" {
		t.Error("MBB String empty")
	}
}
