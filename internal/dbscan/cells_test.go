package dbscan_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/sched"
	"vdbscan/internal/variant"
)

// sweepKept runs the variants eps × {12, 6, 3} on ix, checks every variant
// against Run remapped to the caller's order, and returns the cell
// decompositions ix keeps afterwards.
func sweepKept(t *testing.T, ix *dbscan.Index, threads int, eps ...float64) map[float64]dbscan.Kept {
	t.Helper()
	vs := variant.Product(eps, []int{12, 6, 3})
	rr, err := sched.Execute(ix, vs, sched.Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rr.Results {
		want, err := dbscan.Run(ix, r.Variant.Params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want = want.Remap(ix.Fwd); r.Result.NumClusters != want.NumClusters || !slices.Equal(r.Result.Labels, want.Labels) {
			t.Fatalf("T=%d %v: labels differ from Run", threads, r.Variant.Params)
		}
	}
	return dbscan.KeptCells(ix)
}

// requireKept fails unless kept holds a built decomposition for exactly
// the ε values eps.
func requireKept(t *testing.T, tag string, kept map[float64]dbscan.Kept, eps ...float64) {
	t.Helper()
	if len(kept) != len(eps) {
		t.Fatalf("%s: %d decompositions kept, want %d", tag, len(kept), len(eps))
	}
	for _, e := range eps {
		if kept[dbscan.CellSide(e)].Grid == nil {
			t.Fatalf("%s: no decomposition kept for ε %g", tag, e)
		}
	}
}

// TestSweepKeepsCells: the cell decompositions a sweep's chain heads walk
// stay on the index for the ε values of the latest call. A second identical
// sweep builds none; a sweep of another ε set keeps the one it shares and
// drops the rest; a single run that declares its ε keeps exactly that one.
// Every variant keeps Run's bytes throughout.
func TestSweepKeepsCells(t *testing.T) {
	for _, threads := range []int{1, 3} {
		tag := fmt.Sprintf("T=%d", threads)
		ix := dbscan.BuildIndex(dbscan.Blobs(4, 250, 150, 25, 0.6, 41), dbscan.IndexOptions{Kind: dbscan.IndexGrid})
		first := sweepKept(t, ix, threads, 0.4, 0.6, 0.9)
		requireKept(t, tag+" first sweep", first, 0.4, 0.6, 0.9)

		again := sweepKept(t, ix, threads, 0.9, 0.4, 0.6)
		for side, k := range first {
			if again[side].Grid != k.Grid {
				t.Fatalf("%s: a repeated sweep rebuilt the decomposition of side %g", tag, side)
			}
		}

		other := sweepKept(t, ix, threads, 0.6, 1.3)
		requireKept(t, tag+" other set", other, 0.6, 1.3)
		if other[dbscan.CellSide(0.6)].Grid != first[dbscan.CellSide(0.6)].Grid {
			t.Fatalf("%s: the shared ε's decomposition was rebuilt", tag)
		}

		p := dbscan.Params{Eps: 0.9, MinPts: 5}
		ix.KeepCells(p.Eps)
		got, err := dbscan.RunParallelOpts(context.Background(), ix, p, dbscan.ParallelOptions{Workers: threads}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := dbscan.Run(ix, p, nil); !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("%s %v: labels differ from Run", tag, p)
		}
		single := dbscan.KeptCells(ix)
		requireKept(t, tag+" single run", single, p.Eps)
		if single[dbscan.CellSide(p.Eps)].Grid == first[dbscan.CellSide(p.Eps)].Grid {
			t.Fatalf("%s: a dropped decomposition came back", tag)
		}
	}
}

// TestSweepRetainedHeap pins what an index retains after a 3-ε sweep: the
// index itself plus, per kept ε, its decomposition's 20 B per point (ids and
// coordinates), 4 B per cell and 8 B per run of occupied cells; the limit
// is that sum plus 10 %. Nothing else of the sweep — results, chain state,
// per-head grids — may stay.
func TestSweepRetainedHeap(t *testing.T) {
	const n = 50_000
	rnd := rand.New(rand.NewSource(91))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 200, Y: rnd.Float64() * 200}
	}
	eps := []float64{1, 1.5, 2}
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexGrid})
	if err := ix.EnsureGrid(slices.Max(eps)); err != nil {
		t.Fatal(err)
	}
	index := heap() - before
	if _, err := sched.Execute(ix, variant.Product(eps, []int{8, 4}), sched.Options{Threads: 1}); err != nil {
		t.Fatal(err)
	}
	retained := heap() - before
	kept := dbscan.KeptCells(ix)
	runtime.KeepAlive(ix)
	requireKept(t, "3-ε sweep", kept, eps...)
	var cells float64
	for _, k := range kept {
		cols, rows := k.Grid.Shape()
		cells += 20*float64(k.Grid.Len()) + 4*float64(cols)*float64(rows) + 8*float64(k.Runs)
	}
	if limit := 1.1 * (index + cells); retained > limit {
		t.Errorf("index retains %.1f B/point after the sweep, want <= %.1f (index %.1f, decompositions %.1f)",
			retained/n, limit/n, index/n, cells/n)
	}
	t.Logf("index %.1f B/point, kept decompositions %.1f, retained %.1f", index/n, cells/n, retained/n)
}
