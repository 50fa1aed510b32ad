package dbscan

import (
	"context"
	"fmt"
	"math"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
)

// TestGridKindMatchesRTreeExactly is the cross-kind equivalence property:
// an IndexGrid run must produce byte-identical labels to the IndexRTree
// run — DBSCAN labels depend only on each point's neighbor *set*, which
// both substrates answer exactly — at every worker width, and the
// per-point metrics (searches issued, neighbors found) must agree too.
// CandidatesExamined/NodesVisited legitimately differ: the structures
// prune differently.
func TestGridKindMatchesRTreeExactly(t *testing.T) {
	params := Params{Eps: 2, MinPts: 4}
	for name, pts := range synthetic(t) {
		rix := BuildIndex(pts, IndexOptions{R: 70, Kind: IndexRTree})
		gix := BuildIndex(pts, IndexOptions{R: 70, Kind: IndexGrid})

		var rm, gm metrics.Counters
		want, err := Run(rix, params, &rm)
		if err != nil {
			t.Fatalf("%s: rtree run: %v", name, err)
		}
		got, err := Run(gix, params, &gm)
		if err != nil {
			t.Fatalf("%s: grid run: %v", name, err)
		}
		if gix.Grid() == nil && len(pts) > 0 {
			t.Fatalf("%s: grid was never built", name)
		}
		requireIdentical(t, got, want, name+"/serial")

		rs, gs := rm.Snapshot(), gm.Snapshot()
		if rs.NeighborSearches != gs.NeighborSearches {
			t.Fatalf("%s: searches %d vs %d", name, gs.NeighborSearches, rs.NeighborSearches)
		}
		if rs.NeighborsFound != gs.NeighborsFound {
			t.Fatalf("%s: neighbors found %d vs %d", name, gs.NeighborsFound, rs.NeighborsFound)
		}

		for _, workers := range []int{1, 2, 3, 8} {
			got, err := RunParallel(gix, params, workers, nil)
			if err != nil {
				t.Fatalf("%s: grid parallel(%d): %v", name, workers, err)
			}
			requireIdentical(t, got, want, name+"/parallel")
		}
	}
}

// TestGridNonFiniteCoordinates mixes NaN, +Inf and −Inf points into blobs.
// The grid gives them no cell and the R-tree no MBB bound, so neither finds
// them and a search from one finds nothing: they are noise at any MinPts,
// and the grid kind's bytes are the R-tree kind's — through RunCtx, through
// the cell-major runner at one and three workers, and through a chain
// replay of the cell-major run's records.
func TestGridNonFiniteCoordinates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	pts := append(blobs(3, 200, 60, 20, 0.6, 41),
		geom.Point{X: nan, Y: 1}, geom.Point{X: inf, Y: 2}, geom.Point{X: 3, Y: -inf},
		geom.Point{X: -inf, Y: nan}, geom.Point{X: inf, Y: inf})
	rt := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	gr := BuildIndex(pts, IndexOptions{Kind: IndexGrid})
	ctx := context.Background()
	want := map[int]*cluster.Result{}
	for _, mp := range []int{3, 1} {
		p := Params{Eps: 0.8, MinPts: mp}
		want[mp], _ = Run(rt, p, nil)
		for i, q := range rt.Pts {
			finite := !math.IsNaN(q.X) && !math.IsInf(q.X, 0) && !math.IsNaN(q.Y) && !math.IsInf(q.Y, 0)
			if !finite && want[mp].Labels[i] != cluster.Noise {
				t.Fatalf("minpts=%d: R-tree labels non-finite %v %d", mp, q, want[mp].Labels[i])
			}
		}
		seq, err := RunCtx(ctx, gr, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, seq, want[mp], fmt.Sprintf("RunCtx minpts=%d", mp))
		for _, workers := range []int{1, 3} {
			par, err := RunParallel(gr, p, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, par, want[mp], fmt.Sprintf("cell-major minpts=%d workers=%d", mp, workers))
		}
	}
	_, head, err := RunLink(ctx, gr, Params{Eps: 0.8, MinPts: 3}, nil, ParallelOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay, _, err := RunLink(ctx, gr, Params{Eps: 0.8, MinPts: 1}, head, ParallelOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, replay, want[1], "replay minpts=1")
}

// TestGridKindParamsSweep runs several ε values over one grid-kind index
// against fresh R-tree runs: ε below the side reuses the build untouched,
// ε above it triggers the one-time re-side (EnsureGrid), and direct
// searches past the side stay exact via the widened block either way.
func TestGridKindParamsSweep(t *testing.T) {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCV, N: 6000, NoiseFrac: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gix := BuildIndex(ds.Points, IndexOptions{Kind: IndexGrid})
	rix := BuildIndex(ds.Points, IndexOptions{Kind: IndexRTree})
	if err := gix.EnsureGrid(2.5); err != nil {
		t.Fatal(err)
	}
	side := gix.Grid().Side()
	for _, eps := range []float64{0.5, 1, 2.5} {
		p := Params{Eps: eps, MinPts: 4}
		got, err := Run(gix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(rix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, p.String())
		if gix.Grid().Side() != side {
			t.Fatalf("eps %g <= side %g rebuilt the grid (side now %g)",
				eps, side, gix.Grid().Side())
		}
	}
	// ε beyond the side: the run re-sides the grid once and stays exact.
	p := Params{Eps: 4, MinPts: 4}
	got, err := Run(gix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(rix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, p.String())
	if gix.Grid().Side() < 4 {
		t.Fatalf("eps 4 left grid side at %g", gix.Grid().Side())
	}
}

// TestNeighborSearchGridZeroAlloc mirrors TestNeighborSearchLocalZeroAlloc
// for the grid substrate: once dst is warm, grid-kind ε-searches stay off
// the heap.
func TestNeighborSearchGridZeroAlloc(t *testing.T) {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: 20_000, NoiseFrac: 0.15, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(ds.Points, IndexOptions{Kind: IndexGrid})
	if err := ix.EnsureGrid(2); err != nil {
		t.Fatal(err)
	}
	var local metrics.Local
	dst := make([]int32, 0, 4096)
	for i := 0; i < len(ix.Pts); i += 37 { // warm dst to its high-water mark
		dst = ix.NeighborSearchLocal(ix.Pts[i], 2, &local, dst[:0])
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst = ix.NeighborSearchLocal(ix.Pts[i%len(ix.Pts)], 2, &local, dst[:0])
		i += 41
	})
	if allocs != 0 {
		t.Fatalf("grid NeighborSearchLocal allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnsureGridNoOpOnRTreeKind pins the contract that EnsureGrid does
// nothing (and costs nothing) on the default kind.
func TestEnsureGridNoOpOnRTreeKind(t *testing.T) {
	ix := BuildIndex([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, IndexOptions{Kind: IndexRTree})
	if err := ix.EnsureGrid(5); err != nil {
		t.Fatal(err)
	}
	if ix.Grid() != nil {
		t.Fatal("EnsureGrid built a grid on an IndexRTree index")
	}
}

// TestGridKindCancellation: grid-kind runs still honor context
// cancellation through the shared RunCtx loop.
func TestGridKindCancellation(t *testing.T) {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: 10_000, NoiseFrac: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(ds.Points, IndexOptions{Kind: IndexGrid})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, ix, Params{Eps: 2, MinPts: 4}, nil); err == nil {
		t.Fatal("canceled context accepted")
	}
}
