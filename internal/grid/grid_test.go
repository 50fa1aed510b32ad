package grid

import (
	"math/rand"
	"testing"

	"vdbscan/internal/geom"
)

func TestKeyer(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3.5, Y: 2.2}, {X: 0.99, Y: 0.99}}
	k, _ := newKeyer(pts, 1, 1)
	if got := k.key(geom.Point{X: 0, Y: 0}); got != (binKey{0, 0}) {
		t.Errorf("Key(0,0) = %v", got)
	}
	if got := k.key(geom.Point{X: 0.99, Y: 0.99}); got != (binKey{0, 0}) {
		t.Errorf("Key(0.99,0.99) = %v, want {0 0}", got)
	}
	if got := k.key(geom.Point{X: 3.5, Y: 2.2}); got != (binKey{3, 2}) {
		t.Errorf("Key(3.5,2.2) = %v, want {3 2}", got)
	}
	// Points below the origin of the box never occur for in-dataset points,
	// but the keyer must still be total.
	if got := k.key(geom.Point{X: -0.5, Y: -0.5}); got != (binKey{-1, -1}) {
		t.Errorf("Key(-0.5,-0.5) = %v, want {-1 -1}", got)
	}
}

func TestKeyerBinWidth(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}
	k, _ := newKeyer(pts, 5, 1)
	if got := k.key(geom.Point{X: 4.9, Y: 4.9}); got != (binKey{0, 0}) {
		t.Errorf("width-5 Key(4.9,4.9) = %v", got)
	}
	if got := k.key(geom.Point{X: 5, Y: 9.9}); got != (binKey{1, 1}) {
		t.Errorf("width-5 Key(5,9.9) = %v", got)
	}
}

func TestKeyerPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for binWidth <= 0")
		}
	}()
	newKeyer(nil, 0, 1)
}

func TestSortOrderIsPermutation(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 50, Y: rnd.Float64() * 50}
	}
	_, order, _, _ := Sort(pts, 1)
	seen := make([]bool, len(pts))
	for _, idx := range order {
		if idx < 0 || idx >= len(pts) || seen[idx] {
			t.Fatalf("order is not a permutation: index %d", idx)
		}
		seen[idx] = true
	}
}

func TestSortOrderRowMajor(t *testing.T) {
	pts := []geom.Point{
		{X: 5.5, Y: 5.5}, // bin (5,5)
		{X: 0.5, Y: 0.5}, // bin (0,0)
		{X: 5.5, Y: 0.5}, // bin (5,0)
		{X: 0.5, Y: 5.5}, // bin (0,5)
	}
	_, order, _, _ := Sort(pts, 1)
	want := []int{1, 2, 3, 0} // rows ascend, then cols
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 10, Y: rnd.Float64() * 10}
	}
	sorted, fwd, _, _ := Sort(pts, 1)
	if len(sorted) != len(pts) || len(fwd) != len(pts) {
		t.Fatal("length mismatch")
	}
	for newIdx, origIdx := range fwd {
		if sorted[newIdx] != pts[origIdx] {
			t.Fatalf("fwd mapping broken at %d", newIdx)
		}
	}
}

func TestSortSpatialCoherence(t *testing.T) {
	// After sorting, consecutive runs of points should form much tighter
	// MBBs than the unsorted input (that is the entire purpose).
	rnd := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 4000)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 100, Y: rnd.Float64() * 100}
	}
	const run = 64
	sumArea := func(ps []geom.Point) float64 {
		var total float64
		for i := 0; i+run <= len(ps); i += run {
			total += geom.MBBOfPoints(ps[i : i+run]).Area()
		}
		return total
	}
	sorted, _, _, _ := Sort(pts, 1)
	if a, b := sumArea(sorted), sumArea(pts); a >= b {
		t.Errorf("sorted leaf-run area %g should be < unsorted %g", a, b)
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	if got, _, _, _ := Sort(nil, 1); len(got) != 0 {
		t.Error("empty input should produce empty output")
	}
	one := []geom.Point{{X: 3, Y: 4}}
	sorted, fwd, _, _ := Sort(one, 1)
	if len(sorted) != 1 || sorted[0] != one[0] || fwd[0] != 0 {
		t.Error("single point should pass through")
	}
}

func TestSortDuplicatePoints(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}
	sorted, fwd, _, _ := Sort(pts, 1)
	if len(sorted) != 3 {
		t.Fatal("dup points must all survive")
	}
	// Stability: duplicate points keep original relative order.
	for i, f := range fwd {
		if f != i {
			t.Errorf("stable sort expected identity permutation, got %v", fwd)
			break
		}
	}
}
