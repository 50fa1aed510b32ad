package main

import (
	"math"
	"testing"
	"time"
)

// One root of 100 ns. Child A covers 10..40, child B 30..70 (they overlap
// for 10 ns, which they split), B has a grandchild over 50..60.
func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: harnessLayer, Op: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Op: "x", Start: 10, End: 40, Parent: 0},
		{Name: "b", Op: "y", Start: 30, End: 70, Parent: 0},
		{Name: "c", Op: "z", Start: 50, End: 60, Parent: 2},
	}
	a := attribute(spans)
	want := map[string]int64{
		"harness/op": 10 + 30, // 0..10 and 70..100
		"a/x":        20 + 5,  // 10..30 alone, 30..40 shared with b
		"b/y":        5 + 10 + 10,
		"c/z":        10,
	}
	for k, w := range want {
		if a.Self[k] != w {
			t.Errorf("self[%s] = %d, want %d", k, a.Self[k], w)
		}
	}
	var sum int64
	for _, v := range a.Self {
		sum += v
	}
	if sum != 100 || a.Total != 100 || a.Overhang != 0 {
		t.Errorf("self times sum to %d of total %d (overhang %d); want 100, 100, 0", sum, a.Total, a.Overhang)
	}
	if got := a.share("harness/"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unaccounted share = %g, want 0.4", got)
	}
	if got := a.share("a/", "c/z"); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("share(a/, c/z) = %g, want 0.35", got)
	}
}

// A child that sticks out of its parent is clipped, and the clipped time is
// reported: it is what would make layers sum to more than the whole.
func TestOverhangIsClippedAndCounted(t *testing.T) {
	a := attribute([]span{
		{Name: harnessLayer, Op: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Op: "x", Start: 90, End: 130, Parent: 0},
	})
	if a.Self["a/x"] != 10 || a.Self["harness/op"] != 90 || a.Overhang != 30 {
		t.Errorf("self %v overhang %d; want a/x 10, harness/op 90, overhang 30", a.Self, a.Overhang)
	}
}

// Roots are accounted one by one and summed: two operations of 50 ns.
func TestRootsSum(t *testing.T) {
	a := attribute([]span{
		{Name: harnessLayer, Op: "op", Start: 0, End: 50, Parent: -1},
		{Name: "a", Op: "x", Start: 0, End: 50, Parent: 0},
		{Name: harnessLayer, Op: "op", Start: 20, End: 70, Parent: -1}, // overlaps the first root in time
		{Name: "b", Op: "y", Start: 20, End: 45, Parent: 2},
	})
	if a.Total != 100 || a.Self["a/x"] != 50 || a.Self["b/y"] != 25 || a.Self["harness/op"] != 25 {
		t.Errorf("total %d self %v", a.Total, a.Self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add(-1, "x", "y", time.Time{}, time.Time{}); id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned %d / %v", id, tr.snapshot())
	}
}
