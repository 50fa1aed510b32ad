package incremental

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
)

// checkCells requires the cell store to hold exactly the live points with
// finite coordinates, each in its own cell, every cell in ascending
// index order.
func checkCells(t *testing.T, c *Clusterer) {
	t.Helper()
	filed := 0
	for k, ids := range c.cells {
		if len(ids) == 0 {
			t.Fatalf("cell %v kept empty", k)
		}
		if !slices.IsSorted(ids) {
			t.Fatalf("cell %v out of order: %v", k, ids)
		}
		for _, i := range ids {
			if c.deleted(int(i)) {
				t.Fatalf("deleted point %d still in cell %v", i, k)
			}
			if got, ok := c.cellOf(c.pts[i]); !ok || got != k {
				t.Fatalf("point %d %v filed in cell %v, belongs in %v (ok=%v)", i, c.pts[i], k, got, ok)
			}
		}
		filed += len(ids)
	}
	want := 0
	for i, p := range c.pts {
		if _, ok := c.cellOf(p); ok && !c.deleted(i) {
			want++
		}
	}
	if filed != want {
		t.Fatalf("cells hold %d points, %d live finite points exist", filed, want)
	}
}

// TestNonFiniteInsertsAreNoise streams points with NaN and ±Inf
// coordinates into a churn of finite ones. They must come out noise,
// change no other point's count, core flag or label — the clusterer must
// match a twin that never saw them — and delete like any other point.
func TestNonFiniteInsertsAreNoise(t *testing.T) {
	p := dbscan.Params{Eps: 0.45, MinPts: 4}
	withBad, _ := New(p, nil)
	clean, _ := New(p, nil)
	bad := []geom.Point{
		{X: math.NaN(), Y: 1}, {X: 1, Y: math.NaN()}, {X: math.Inf(1), Y: 2},
		{X: 2, Y: math.Inf(-1)}, {X: math.Inf(-1), Y: math.Inf(1)}, {X: math.NaN(), Y: math.NaN()},
	}
	rng := rand.New(rand.NewSource(31))
	var badIdx []int
	var twin []int // twin[j] is the withBad index of clean's point j
	for i := 0; i < 400; i++ {
		if i%7 == 3 {
			badIdx = append(badIdx, withBad.Len())
			withBad.Insert(bad[len(badIdx)%len(bad)])
			continue
		}
		q := churnPoint(rng)
		twin = append(twin, withBad.Len())
		withBad.Insert(q)
		clean.Insert(q)
	}
	same := func(stage string) {
		t.Helper()
		checkCells(t, withBad)
		got, want := withBad.Labels(), clean.Labels()
		if got.NumClusters != want.NumClusters {
			t.Fatalf("%s: %d clusters, twin has %d", stage, got.NumClusters, want.NumClusters)
		}
		for j, i := range twin {
			if withBad.deleted(i) {
				continue
			}
			if withBad.counts[i] != clean.counts[j] || withBad.core[i] != clean.core[j] ||
				got.Labels[i] != want.Labels[j] {
				t.Fatalf("%s: point %d: count %d core %v label %d, twin %d %v %d", stage, i,
					withBad.counts[i], withBad.core[i], got.Labels[i],
					clean.counts[j], clean.core[j], want.Labels[j])
			}
		}
		for _, i := range badIdx {
			if got.Labels[i] > 0 || withBad.counts[i] != 0 {
				t.Fatalf("%s: non-finite point %d has label %d, count %d", stage, i, got.Labels[i], withBad.counts[i])
			}
		}
	}
	same("after inserts")

	// Delete every other finite point from both, then every non-finite one.
	for j, i := range twin {
		if j%2 == 0 {
			if err := withBad.Delete(i); err != nil {
				t.Fatal(err)
			}
			if err := clean.Delete(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	same("after finite deletes")
	for _, i := range badIdx {
		if err := withBad.Delete(i); err != nil {
			t.Fatalf("delete non-finite %d: %v", i, err)
		}
	}
	same("after non-finite deletes")
	if err := withBad.Delete(badIdx[0]); err == nil {
		t.Fatal("second delete of a non-finite point accepted")
	}
	if withBad.LiveLen() != clean.LiveLen() {
		t.Fatalf("live %d, twin %d", withBad.LiveLen(), clean.LiveLen())
	}
}

// TestCellStoreUnderChurn checks the store's invariants through a
// seeded insert/delete churn that includes exact duplicates.
func TestCellStoreUnderChurn(t *testing.T) {
	c, _ := New(dbscan.Params{Eps: 0.45, MinPts: 4}, nil)
	rng := rand.New(rand.NewSource(8))
	var live []int
	for op := 0; op < 2000; op++ {
		if len(live) > 0 && rng.Float64() < 0.45 {
			k := rng.Intn(len(live))
			if err := c.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			q := churnPoint(rng)
			if op%10 == 0 && c.Len() > 0 {
				q = c.pts[rng.Intn(c.Len())] // exact duplicate
			}
			live = append(live, c.Len())
			c.Insert(q)
		}
		if op%100 == 0 {
			checkCells(t, c)
		}
	}
	checkCells(t, c)
}

// TestCellCoordClamp pins that coordinates whose cell index leaves the
// int64 range clamp instead of converting out of range, and that a search
// from a clamped point still finds its finite neighbours.
func TestCellCoordClamp(t *testing.T) {
	for _, v := range []float64{1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 1e17, -1e17} {
		got := cellCoord(v)
		if got > maxCell || got < -maxCell {
			t.Fatalf("cellCoord(%g) = %d outside ±%d", v, got, int64(maxCell))
		}
	}
	c, _ := New(dbscan.Params{Eps: 1e-300, MinPts: 2}, nil)
	far := geom.Point{X: 1e300, Y: -1e300}
	c.Insert(far)
	c.Insert(far)
	c.Insert(geom.Point{X: 1e299, Y: 0})
	if got := c.neighbors(far, nil); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("neighbours of the far point: %v, want [0 1]", got)
	}
	if res := c.Labels(); res.NumClusters != 1 || res.Labels[0] != 1 || res.Labels[1] != 1 || res.Labels[2] > 0 {
		t.Fatalf("labels %v", res.Labels)
	}
}
