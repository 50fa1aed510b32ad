package rtree

import (
	"math"
	"math/rand"
	"testing"

	"vdbscan/internal/geom"
)

// linearEps is the oracle: brute-force ε-neighbors over the live set.
func linearEps(pts []geom.Point, live []bool, q geom.Point, eps float64) []int32 {
	epsSq := eps * eps
	var out []int32
	for i, p := range pts {
		if live[i] && q.DistSq(p) <= epsSq {
			out = append(out, int32(i))
		}
	}
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverlayMergedSearchOracle freezes a snapshot, then churns inserts
// and deletes through an Overlay and checks every merged search against
// the linear oracle — including deletes of snapshot-covered points,
// deletes of overlay-added points, and queries landing on both.
func TestOverlayMergedSearchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New(Options{R: 4})
	var pts []geom.Point
	var live []bool
	for i := 0; i < 150; i++ {
		p := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		tr.Insert(p)
		pts = append(pts, p)
		live = append(live, true)
	}
	f := tr.Compact()
	var ov Overlay

	check := func(tag string) {
		t.Helper()
		for trial := 0; trial < 12; trial++ {
			q := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
			eps := 0.5 + rng.Float64()*2.5
			got, _, _ := EpsSearchOverlay(f, tr.Points(), q, eps, nil, &ov)
			want := linearEps(tr.Points(), live, q, eps)
			if !equalInt32(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("%s trial %d: merged search %v != oracle %v (q=%v eps=%v, %v)",
					tag, trial, sortedCopy(got), sortedCopy(want), q, eps, &ov)
			}
		}
	}

	check("fresh snapshot")
	for round := 0; round < 6; round++ {
		for k := 0; k < 20; k++ {
			if rng.Float64() < 0.4 {
				// Delete a random live point (snapshot-covered or added).
				var liveIdx []int32
				for i, l := range live {
					if l {
						liveIdx = append(liveIdx, int32(i))
					}
				}
				i := liveIdx[rng.Intn(len(liveIdx))]
				found, err := tr.DeleteIndex(tr.Points()[i], i)
				if err != nil || !found {
					t.Fatalf("delete %d: found=%v err=%v", i, found, err)
				}
				ov.RecordDelete(i)
				live[i] = false
			} else {
				p := geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
				idx := int32(len(tr.Points()))
				tr.Insert(p)
				ov.RecordInsert(idx)
				pts = append(pts, p)
				live = append(live, true)
			}
		}
		// The overlay must account for the full generation gap.
		if f.Generation()+ov.Muts() != tr.Generation() {
			t.Fatalf("round %d: generation identity broken: flat=%d + muts=%d != tree=%d",
				round, f.Generation(), ov.Muts(), tr.Generation())
		}
		check("churn round")
	}
}

// TestOverlayDeleteOfAddedPoint pins RecordDelete's two regimes: an
// overlay-added index vanishes from the added buffer (it was never in
// any snapshot), while a snapshot-covered index joins the deleted set.
func TestOverlayDeleteOfAddedPoint(t *testing.T) {
	var ov Overlay
	ov.RecordInsert(100)
	ov.RecordInsert(101)
	ov.RecordInsert(102)
	ov.RecordDelete(101) // swap-removes from added
	if ov.NumAdded() != 2 || ov.NumDeleted() != 0 {
		t.Fatalf("delete of added point: %v", &ov)
	}
	if got := sortedCopy(ov.Added()); !equalInt32(got, []int32{100, 102}) {
		t.Fatalf("added buffer after swap-remove: %v", got)
	}
	ov.RecordDelete(7) // snapshot-covered
	if !ov.IsDeleted(7) || ov.NumDeleted() != 1 {
		t.Fatalf("delete of covered point: %v", &ov)
	}
	// Every event counted, including the net-zero insert+delete pair.
	if ov.Muts() != 5 {
		t.Fatalf("muts = %d, want 5", ov.Muts())
	}
}

// TestStackedOverlays exercises the mid-refreeze shape: a pending
// overlay (covered by the in-flight clone) stacked under the active one,
// with the active overlay deleting a point the pending one added.
func TestStackedOverlays(t *testing.T) {
	tr := New(Options{R: 4})
	for i := 0; i < 40; i++ {
		tr.Insert(geom.Point{X: float64(i % 8), Y: float64(i / 8)})
	}
	f := tr.Compact()

	var pending, active Overlay
	a := geom.Point{X: 2.1, Y: 2.1}
	tr.Insert(a)
	pending.RecordInsert(40)
	b := geom.Point{X: 2.2, Y: 2.2}
	tr.Insert(b)
	active.RecordInsert(41)
	// Active deletes the pending-added point: pending still lists it, so
	// the merge must honor the later overlay's deletion.
	found, err := tr.DeleteIndex(a, 40)
	if err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	active.RecordDelete(40)

	got, _, _ := EpsSearchOverlay(f, tr.Points(), geom.Point{X: 2.15, Y: 2.15}, 0.2, nil, &pending, &active)
	if !equalInt32(sortedCopy(got), []int32{41}) {
		t.Fatalf("stacked merge = %v, want [41]", sortedCopy(got))
	}
	if f.Generation()+pending.Muts()+active.Muts() != tr.Generation() {
		t.Fatalf("stacked generation identity broken")
	}
}

// TestGenerationCounting pins the generation contract: every insert and
// every delete bumps the tree's generation by exactly one, and Compact
// stamps the tree's generation into the Flat.
func TestGenerationCounting(t *testing.T) {
	tr := New(Options{R: 4})
	if tr.Generation() != 0 {
		t.Fatalf("fresh tree generation = %d", tr.Generation())
	}
	for i := 0; i < 10; i++ {
		tr.Insert(geom.Point{X: float64(i), Y: 0})
	}
	if tr.Generation() != 10 {
		t.Fatalf("after 10 inserts: generation = %d", tr.Generation())
	}
	if found, err := tr.DeleteIndex(geom.Point{X: 3, Y: 0}, 3); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if tr.Generation() != 11 {
		t.Fatalf("after delete: generation = %d", tr.Generation())
	}
	f := tr.Compact()
	if f.Generation() != tr.Generation() {
		t.Fatalf("flat generation %d != tree generation %d", f.Generation(), tr.Generation())
	}
}

// TestSnapshotIndependence verifies a structural clone is immune to
// subsequent mutations of the original: its compacted search answers
// stay exactly the pre-mutation answers.
func TestSnapshotIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := New(Options{R: 4})
	for i := 0; i < 120; i++ {
		tr.Insert(geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	frozenLen := tr.Len()
	frozenGen := tr.Generation()
	clone := tr.Snapshot()

	// Mutate the original heavily: grows the shared points array (forcing
	// reallocation past the clone's capped length) and deletes entries.
	for i := 0; i < 200; i++ {
		tr.Insert(geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	for i := 0; i < 30; i++ {
		idx := int32(rng.Intn(frozenLen))
		tr.DeleteIndex(tr.Points()[idx], idx) // ignore not-found on repeats
	}

	if clone.Len() != frozenLen || clone.Generation() != frozenGen {
		t.Fatalf("clone mutated: len=%d gen=%d, want len=%d gen=%d",
			clone.Len(), clone.Generation(), frozenLen, frozenGen)
	}
	f := clone.Compact()
	if f.Len() != frozenLen || f.Generation() != frozenGen {
		t.Fatalf("compacted clone: len=%d gen=%d, want len=%d gen=%d",
			f.Len(), f.Generation(), frozenLen, frozenGen)
	}
	// Every clone search equals a linear scan over the frozen prefix.
	pts := clone.Points()
	if len(pts) != frozenLen {
		t.Fatalf("clone points length %d, want %d", len(pts), frozenLen)
	}
	live := make([]bool, frozenLen)
	for i := range live {
		live[i] = true
	}
	for trial := 0; trial < 20; trial++ {
		q := geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		got, _, _ := f.EpsSearch(q, 1.0, nil)
		want := linearEps(pts, live, q, 1.0)
		if !equalInt32(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("trial %d: clone search diverged after original mutated", trial)
		}
	}
}

// TestCheckCompactBounds pins the int32 offset guard: entry or point
// counts past math.MaxInt32 must produce ErrFlatTooLarge rather than a
// silent overflowing cast.
func TestCheckCompactBounds(t *testing.T) {
	if err := checkCompactBounds(100, 100); err != nil {
		t.Fatalf("small tree rejected: %v", err)
	}
	if err := checkCompactBounds(math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("exactly MaxInt32 rejected: %v", err)
	}
	big := int(math.MaxInt32) + 1
	if big < 0 {
		t.Skip("32-bit int platform cannot represent the overflowing count")
	}
	if err := checkCompactBounds(big, 100); err == nil {
		t.Fatal("entry count past MaxInt32 accepted")
	}
	if err := checkCompactBounds(100, big); err == nil {
		t.Fatal("point count past MaxInt32 accepted")
	}
}
