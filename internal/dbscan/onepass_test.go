package dbscan

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/geom"
)

// Tests of the one-pass protocol itself (publish core flag, then link
// against the flags already published; record non-core neighbourhoods and
// resolve them after the barrier). The exactness matrices in
// parallel_test.go and tiled_test.go cover the data shapes; these cover
// the interleavings and the boundary parameters.

// onePassModes is the tiled/untiled axis every protocol test runs over.
var onePassModes = []struct {
	name  string
	tiles int
}{{"untiled", 1}, {"tiled", 4}}

// TestOnePassContentionStress drives the flag/union protocol where it is
// most contended: small dense blobs of 300 consecutive indices, so every
// cluster spans cells of both kinds — dense ones published by the mark
// pass and linked by closest-pair tests, sparse ones whose core points
// publish and link themselves while their neighbours do the same — and
// nearly every core–core edge has its endpoints claimed by different
// workers at the same time. Labels must be byte-identical to Run at every
// width and seed. Run it under -race: the detector sees the core flags and
// DSU parents shared across workers.
func TestOnePassContentionStress(t *testing.T) {
	p := Params{Eps: 0.5, MinPts: 5}
	for seed := int64(1); seed <= 50; seed++ {
		pts := blobs(4, 300, 80, 12, 0.7, 900+seed)
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
		want, err := Run(ix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireDenseAndSparseCores(t, ix, p)
		for workers := 1; workers <= 8; workers++ {
			mode := onePassModes[(int(seed)+workers)%2]
			opt := ParallelOptions{Workers: workers, Tiles: mode.tiles}
			got, err := RunParallelOpts(context.Background(), ix, p, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, fmt.Sprintf("seed=%d workers=%d %s", seed, workers, mode.name))
		}
	}
}

// requireDenseAndSparseCores fails the test unless the run's cell
// decomposition has core points in dense cells and core points in sparse
// ones: both halves of the cell-major protocol, and the sparse-to-dense
// links between them, are then exercised.
func requireDenseAndSparseCores(t *testing.T, ix *Index, p Params) {
	t.Helper()
	if err := ix.EnsureGrid(p.Eps); err != nil {
		t.Fatal(err)
	}
	g := ix.cellDecomposition(p.Eps)
	if g == nil {
		t.Fatal("fixture has no cell decomposition")
	}
	core := CorePoints(ix, p, nil)
	cols, rows := g.Shape()
	var dense, sparseCore int
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			lo, hi := g.CellRange(r, c, c+1)
			if int(hi-lo) >= p.MinPts {
				dense += int(hi - lo)
				continue
			}
			for s := lo; s < hi; s++ {
				if core[g.SlotID(s)] {
					sparseCore++
				}
			}
		}
	}
	if dense == 0 || sparseCore == 0 {
		t.Fatalf("degenerate fixture: %d points in dense cells, %d core points in sparse cells", dense, sparseCore)
	}
}

// TestOnePassEdgeParams pins the two ends of the core/non-core split and
// the border rule, at 1–8 workers, tiled and untiled.
func TestOnePassEdgeParams(t *testing.T) {
	// Border rule fixture: two six-point clusters (three columns by two
	// rows, 0.01 apart) about 4.2 apart, mirror images of each other in a
	// midpoint that has exactly two members of each within ε = 2.122. At
	// MinPts = 6 every member is core (its six cluster-mates), the clusters
	// do not touch, and the midpoint has 2 + 2 + itself = 5 neighbours: a
	// border of both. The right cluster lies a unit bin row lower, so the
	// index's bin sort puts it first and it becomes cluster 1, while both
	// share one ε-wide cell row and the ε-search scans the left cluster
	// (id 2) first.
	var tie []geom.Point
	for dx := 0; dx < 3; dx++ {
		for dy := 0; dy < 2; dy++ {
			ox, oy := float64(dx)*0.01, float64(dy)*0.01
			tie = append(tie, geom.Point{X: 10 + ox, Y: 11.5 + oy}, geom.Point{X: 14 - ox, Y: 10.01 - oy})
		}
	}
	mid := geom.Point{X: 12, Y: 10.755}
	tie = append(tie, mid)
	for i := 0; i < 400; i++ { // filler, so the grid has cells to cut into tiles
		tie = append(tie, geom.Point{X: 40 + float64(i%20)*3, Y: 40 + float64(i/20)*3})
	}
	// BuildIndex grid-sorts its copy of the points, and labels follow that
	// order, so the fixture's points are found by coordinate.
	tieIx := BuildIndex(tie, IndexOptions{R: 16, Kind: IndexGrid})
	at := func(p geom.Point) int {
		for i, q := range tieIx.Pts {
			if q == p {
				return i
			}
		}
		t.Fatalf("fixture point %v not in the index", p)
		return -1
	}
	left, right, border := at(tie[0]), at(tie[1]), at(mid)

	lattice := make([]geom.Point, 750)
	for i := range lattice {
		lattice[i] = geom.Point{X: float64(i % 30), Y: float64(i / 30)}
	}
	blobIx := func(seed int64) *Index {
		return BuildIndex(blobs(3, 200, 150, 30, 0.8, seed), IndexOptions{R: 16, Kind: IndexGrid})
	}
	cases := []struct {
		name  string
		ix    *Index
		p     Params
		check func(t *testing.T, res *cluster.Result)
	}{
		{
			// Every point is core (it is its own neighbour): nothing is
			// ever recorded for the border sweep, and nothing is noise.
			name: "minpts-1", ix: blobIx(31), p: Params{Eps: 0.6, MinPts: 1},
			check: func(t *testing.T, res *cluster.Result) {
				if n := res.NumNoise(); n != 0 {
					t.Fatalf("%d noise points at MinPts = 1", n)
				}
			},
		},
		{
			// ε below every pairwise distance of a unit lattice: no core,
			// every point is a recorded non-core with itself as its only
			// neighbour.
			name: "all-noise", ix: BuildIndex(lattice, IndexOptions{R: 16, Kind: IndexGrid}), p: Params{Eps: 0.5, MinPts: 2},
			check: func(t *testing.T, res *cluster.Result) {
				if res.NumClusters != 0 || res.NumNoise() != res.Len() {
					t.Fatalf("clusters %d, noise %d of %d", res.NumClusters, res.NumNoise(), res.Len())
				}
			},
		},
		{
			// The border joins the lower of the two cluster ids — which is
			// not the cluster of the first core neighbour its ε-search
			// returns, so a "first core seen" rule fails here.
			name: "two-cluster-border", ix: tieIx, p: Params{Eps: 2.122, MinPts: 6},
			check: func(t *testing.T, res *cluster.Result) {
				if res.Labels[right] != 1 || res.Labels[left] != 2 {
					t.Fatalf("clusters numbered right %d, left %d; want 1, 2", res.Labels[right], res.Labels[left])
				}
				if got := res.Labels[border]; got != 1 {
					t.Fatalf("border point joined cluster %d, want the lower id 1", got)
				}
				for _, j := range tieIx.NeighborSearch(mid, 2.122, nil, nil) {
					if int(j) == border {
						continue
					}
					if res.Labels[j] != 2 {
						t.Fatalf("fixture: the border's first core neighbour is in cluster %d, want 2", res.Labels[j])
					}
					break
				}
			},
		},
	}
	for _, c := range cases {
		want, err := Run(c.ix, c.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.check(t, want) // the expectation holds for the oracle first
		if c.ix.cellDecomposition(c.p.Eps) == nil || c.ix.TilePartition(4) == nil {
			t.Fatalf("%s: fixture too small to tile, the tiled mode would test nothing", c.name)
		}
		for _, mode := range onePassModes {
			for workers := 1; workers <= 8; workers++ {
				got := tiledRun(t, c.ix, c.p, mode.tiles, workers, nil)
				requireIdentical(t, got, want, fmt.Sprintf("%s %s workers=%d", c.name, mode.name, workers))
				c.check(t, got)
			}
		}
	}
}

// TestRunParallelAllocationPin keeps retained neighbourhoods from coming
// back unnoticed. What the runner may allocate per point is the core
// flag, the DSU parent, the label and the labelling pass's root table —
// 16 bytes — plus records for the non-core minority; storing the dense
// points' neighbour lists cost ~350 bytes per point on this data.
func TestRunParallelAllocationPin(t *testing.T) {
	pts := blobs(8, 12_000, 8_000, 300, 6, 77) // 104k points, ~100 neighbours in the blobs
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	p := Params{Eps: 1, MinPts: 4}
	for _, mode := range onePassModes {
		opt := ParallelOptions{Workers: 2, Tiles: mode.tiles}
		// Warm-up builds the grid, the kept cell decomposition and the
		// tile partition, which the index caches and the pin is not about.
		ix.KeepCells(p.Eps)
		if _, err := RunParallelOpts(context.Background(), ix, p, opt, nil); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunParallelOpts(context.Background(), ix, p, opt, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters == 0 || res.NumNoise() == 0 {
			t.Fatalf("%s: degenerate fixture: %d clusters, %d noise", mode.name, res.NumClusters, res.NumNoise())
		}
		perPoint := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(pts))
		if perPoint >= 64 {
			t.Errorf("%s: %.1f B/point allocated, want < 64", mode.name, perPoint)
		}
	}
}
