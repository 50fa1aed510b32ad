package dbscan

import (
	"context"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/metrics"
)

// tiledRun runs the parallel path with an explicit tile target on a
// grid-kind index.
func tiledRun(t *testing.T, ix *Index, p Params, tiles, workers int, m *metrics.Counters) *cluster.Result {
	t.Helper()
	res, err := RunParallelOpts(context.Background(), ix, p,
		ParallelOptions{Workers: workers, Tiles: tiles}, m)
	if err != nil {
		t.Fatalf("tiles=%d workers=%d: %v", tiles, workers, err)
	}
	return res
}

// TestRunTiledMatchesUntiledExactly is the tentpole's exactness property:
// across {1, 2×2, 3×3, 4×4} tiles × {1..8} workers, the tiled run must be
// byte-identical to sequential Run — same labels, same cluster numbering,
// same noise set — on uniform, clustered, skewed, and degenerate data.
// (The reuse on/off axis of the matrix runs at the scheduler level; see
// sched's TestExecuteTiledMatchesUntiled.)
func TestRunTiledMatchesUntiledExactly(t *testing.T) {
	params := []Params{
		{Eps: 3, MinPts: 4},
		{Eps: 1.5, MinPts: 8},
		{Eps: 0.5, MinPts: 1},
	}
	for name, pts := range synthetic(t) {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
		for _, p := range params {
			want, err := Run(ix, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, tiles := range []int{1, 4, 9, 16} {
				for _, workers := range []int{1, 2, 4, 8} {
					got := tiledRun(t, ix, p, tiles, workers, nil)
					requireIdentical(t, got, want,
						name+"/"+p.String())
				}
			}
		}
	}
}

// sparsePoints counts the points of g's cells inside rect that lie in
// cells holding fewer than minPts points — the ones the cell-major runner
// has to ε-search.
func sparsePoints(g *cellGrid, rect gridindex.CellRect, minPts int) (n int64) {
	for r := rect.R0; r < rect.R1; r++ {
		for c := rect.C0; c < rect.C1; c++ {
			if k := g.CellCount(r, c); int(k) < minPts {
				n += int64(k)
			}
		}
	}
	return n
}

// TestRunTiledMetricsMatch: the work counters are a function of the input
// alone — the same metrics.Snapshot at every worker count, under every
// division of the cells, on every repeat — because the tenant ledger bills
// them and the benchmark declares work_units exact. They count one search
// per sparse-cell point, and searches plus candidates stay under Run's.
func TestRunTiledMetricsMatch(t *testing.T) {
	pts := blobs(4, 800, 200, 30, 0.7, 201)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	p := Params{Eps: 0.9, MinPts: 5}
	var mSeq metrics.Counters
	if _, err := Run(ix, p, &mSeq); err != nil {
		t.Fatal(err)
	}
	var want metrics.Snapshot
	for rep := 0; rep < 20; rep++ {
		for _, tiles := range []int{1, 4, 9} {
			for _, workers := range []int{1, 2, 4, 8} {
				var m metrics.Counters
				tiledRun(t, ix, p, tiles, workers, &m)
				if want == (metrics.Snapshot{}) {
					want = m.Snapshot()
				}
				if got := m.Snapshot(); got != want {
					t.Fatalf("rep=%d tiles=%d workers=%d: work counters %v, first run counted %v",
						rep, tiles, workers, got, want)
				}
			}
		}
	}
	g := ix.cellDecomposition(p.Eps)
	cols, rows := g.Shape()
	sparse := sparsePoints(g, gridindex.CellRect{C1: cols, R1: rows}, p.MinPts)
	if sparse == 0 || sparse == int64(len(pts)) {
		t.Fatalf("degenerate fixture: %d of %d points in sparse cells", sparse, len(pts))
	}
	if want.NeighborSearches != sparse {
		t.Errorf("NeighborSearches = %d, want one per sparse-cell point = %d", want.NeighborSearches, sparse)
	}
	seq := mSeq.Snapshot()
	if got, limit := want.NeighborSearches+want.CandidatesExamined, seq.NeighborSearches+seq.CandidatesExamined; got > limit {
		t.Errorf("searches + candidates = %d, above sequential Run's %d", got, limit)
	}
}

// TestRunTiledUsesTiledPath guards against the tiled path silently never
// engaging: an explicit tile target on a grid index must install a tile
// partition keyed to the current grid, and auto mode must engage it on a
// dataset large enough to shard.
func TestRunTiledUsesTiledPath(t *testing.T) {
	pts := blobs(6, 4000, 1000, 60, 0.8, 202) // 25k points ≥ 4×MinTilePoints
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	p := Params{Eps: 0.9, MinPts: 5}

	tiledRun(t, ix, p, 4, 2, nil)
	tp := ix.tiles.Load()
	if tp == nil || tp.part == nil || tp.part.Len() < 2 {
		t.Fatalf("explicit tiles=4 did not build a partition: %+v", tp)
	}
	if tp.part.Grid() != ix.Grid() {
		t.Fatal("partition not keyed to the installed grid")
	}

	// Auto mode (Tiles: 0) on a multi-worker large run engages tiling too.
	ix2 := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	if _, err := RunParallelOpts(context.Background(), ix2, p,
		ParallelOptions{Workers: 4}, nil); err != nil {
		t.Fatal(err)
	}
	if tp := ix2.tiles.Load(); tp == nil || tp.part == nil {
		t.Fatal("auto mode never engaged the tiled path on a 25k-point 4-worker run")
	}
}

// TestRunTiledRTreeFallsBack: on an R-tree index there is no grid, so an
// explicit tile request must quietly take the point-major path and still
// be exact.
func TestRunTiledRTreeFallsBack(t *testing.T) {
	pts := blobs(3, 300, 100, 25, 0.6, 203)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	p := Params{Eps: 0.8, MinPts: 4}
	want, err := Run(ix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tiledRun(t, ix, p, 4, 4, nil)
	requireIdentical(t, got, want, "rtree-fallback")
	if tp := ix.tiles.Load(); tp != nil {
		t.Error("R-tree index built a tile partition")
	}
}

// TestTilePartitionRebuiltOnReside is the re-side regression test: a
// params sweep whose later variant has a larger ε forces EnsureGrid to
// re-side the grid (side >= maxEps is violated) and needs a coarser cell
// decomposition, and the tile partition must be recut for the new grid —
// stale tile boundaries from the small-ε grid would shear the label space.
func TestTilePartitionRebuiltOnReside(t *testing.T) {
	pts := blobs(5, 600, 150, 40, 0.9, 204)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})

	small := Params{Eps: 0.4, MinPts: 4}
	tiledRun(t, ix, small, 9, 4, nil)
	gridBefore, cellsBefore := ix.Grid(), ix.cellDecomposition(small.Eps)
	partBefore := ix.TilePartition(9)
	if gridBefore == nil || cellsBefore == nil || partBefore == nil {
		t.Fatal("small-ε tiled run built no grid/decomposition/partition")
	}

	// 10× the ε: the cached grid's side is too small, EnsureGrid re-sides.
	big := Params{Eps: 4, MinPts: 4}
	want, err := Run(ix, big, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := tiledRun(t, ix, big, 9, 4, nil)
	requireIdentical(t, got, want, "post-reside")

	if ix.Grid() == gridBefore {
		t.Fatal("grid was not re-sided for the larger ε")
	}
	if cellsAfter := ix.cellDecomposition(big.Eps); cellsAfter == nil || cellsAfter == cellsBefore {
		t.Fatal("cell decomposition was not rebuilt for the larger ε")
	}
	partAfter := ix.TilePartition(9)
	if partAfter == nil {
		t.Fatal("no partition after re-side")
	}
	if partAfter == partBefore {
		t.Fatal("stale tile partition survived the grid re-side")
	}
	if partAfter.Grid() != ix.Grid() {
		t.Fatal("rebuilt partition not keyed to the re-sided grid")
	}
}

// TestTileRectsCoverCellsOnce: carried over from the search grid to the
// cell decomposition — whatever the ratio of the two sides, a sweep's
// maximum ε or the run's own — the tiles still own every cell exactly once.
func TestTileRectsCoverCellsOnce(t *testing.T) {
	pts := blobs(5, 600, 400, 40, 0.9, 208)
	const eps = 0.5
	for _, gridEps := range []float64{eps, 1.3 * eps, 4 * eps} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
		if err := ix.EnsureGrid(gridEps); err != nil {
			t.Fatal(err)
		}
		g := ix.cellDecomposition(eps)
		cols, rows := g.Shape()
		for _, target := range []int{2, 4, 7, 9, 16} {
			part := ix.TilePartition(target)
			if part == nil {
				t.Fatalf("grid eps %g target %d: no partition", gridEps, target)
			}
			owners := make([]int, int(cols)*int(rows))
			for _, rect := range tileRects(part, g) {
				if rect.C0 < 0 || rect.R0 < 0 || rect.C1 > cols || rect.R1 > rows {
					t.Fatalf("grid eps %g target %d: tile %+v leaves the %dx%d cells", gridEps, target, rect, cols, rows)
				}
				for r := rect.R0; r < rect.R1; r++ {
					for c := rect.C0; c < rect.C1; c++ {
						owners[int(r)*int(cols)+int(c)]++
					}
				}
			}
			for i, n := range owners {
				if n != 1 {
					t.Fatalf("grid eps %g target %d: cell %d owned by %d tiles", gridEps, target, i, n)
				}
			}
		}
	}
}

// TestTiledSeamBorderDeterminism is the satellite property test: border
// points seam-adjacent and equidistant from core points in two different
// tiles must get the same owner as the untiled run — the border sweep
// takes the lowest cluster id among a point's own recorded neighbours,
// which no tile cut can change. The constructed case pins the geometry;
// the seeded sweep covers organically arising ties.
func TestTiledSeamBorderDeterminism(t *testing.T) {
	// Constructed: two dense cores far enough apart that they form two
	// clusters, with one border point exactly equidistant from a core
	// member of each, sitting on what a 2-tile cut makes a seam.
	var pts []geom.Point
	put := func(cx, cy float64) {
		for dx := 0; dx < 3; dx++ {
			for dy := 0; dy < 2; dy++ {
				pts = append(pts, geom.Point{X: cx + float64(dx)*0.01, Y: cy + float64(dy)*0.01})
			}
		}
	}
	put(10, 10) // cluster A
	put(14, 10) // cluster B: 4 apart, eps=2.01 cannot bridge A-B cores...
	// ...but the midpoint is within eps of both clusters' cores.
	pts = append(pts, geom.Point{X: 12, Y: 10})
	// Spread filler so the grid has multiple cells/tiles to cut.
	for i := 0; i < 400; i++ {
		pts = append(pts, geom.Point{
			X: float64(i%20) * 1.3,
			Y: float64(i/20) * 1.3,
		})
	}
	p := Params{Eps: 2.01, MinPts: 6}
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	want, err := Run(ix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tiles := range []int{2, 4, 9, 16} {
		for _, workers := range []int{1, 4} {
			got := tiledRun(t, ix, p, tiles, workers, nil)
			requireIdentical(t, got, want, "constructed-tie")
		}
	}

	// Seeded sweep: dense random data at an ε that makes most points
	// border-adjacent to several clusters across many random layouts.
	for seed := int64(1); seed <= 20; seed++ {
		pts := blobs(6, 120, 90, 18, 1.1, 300+seed)
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
		p := Params{Eps: 1.3, MinPts: 9}
		want, err := Run(ix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tiles := range []int{4, 9} {
			got := tiledRun(t, ix, p, tiles, 4, nil)
			requireIdentical(t, got, want, "seeded-tie")
		}
	}
}

// TestRunTiledCancellation: a context canceled mid-run drains and
// surfaces the context error with no partial result.
func TestRunTiledCancellation(t *testing.T) {
	pts := blobs(4, 500, 200, 30, 0.7, 205)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunParallelOpts(ctx, ix, Params{Eps: 0.8, MinPts: 4},
		ParallelOptions{Workers: 4, Tiles: 4}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a partial result")
	}
}

// TestRunTiledCancelMidPass: a tiled run canceled between tiles returns
// the context error and no result, having counted exactly the work of the
// tiles it finished. With one worker the mark pass asks ctx once per tile
// and once to stop, the runner once at the barrier, and the near pass once
// per tile: cancellation at the call after that lands past the near pass's
// first two tiles, and the searches counted are every sparse-cell point's,
// all made in the mark pass.
func TestRunTiledCancelMidPass(t *testing.T) {
	pts := blobs(4, 500, 200, 30, 0.7, 207)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
	p := Params{Eps: 0.8, MinPts: 4}
	if err := ix.EnsureGrid(p.Eps); err != nil {
		t.Fatal(err)
	}
	g, part := ix.cellDecomposition(p.Eps), ix.TilePartition(4)
	if part == nil || part.Len() < 3 {
		t.Fatalf("fixture did not cut into >= 3 tiles: %v", part)
	}
	tiles := tileRects(part, g)
	first := sparsePoints(g, tiles[0], p.MinPts)
	if first == 0 {
		t.Fatal("degenerate fixture: the first tile holds no sparse-cell point")
	}
	cols, rows := g.Shape()
	want := sparsePoints(g, gridindex.CellRect{C1: cols, R1: rows}, p.MinPts)
	var m metrics.Counters
	ctx := &countdownCtx{Context: context.Background(), after: int64(part.Len()+1) + 1 + 3}
	res, err := RunParallelOpts(ctx, ix, p, ParallelOptions{Workers: 1, Tiles: 4}, &m)
	if err != context.Canceled || res != nil {
		t.Fatalf("res=%v err=%v, want nil and context.Canceled", res, err)
	}
	if got := m.Snapshot().NeighborSearches; got != want {
		t.Fatalf("NeighborSearches = %d after canceling past two tiles, want %d", got, want)
	}

	// Canceled inside the mark pass, after its first tile: the searches
	// counted are that tile's, and the near pass never starts.
	var m2 metrics.Counters
	ctx = &countdownCtx{Context: context.Background(), after: 2}
	res, err = RunParallelOpts(ctx, ix, p, ParallelOptions{Workers: 1, Tiles: 4}, &m2)
	if err != context.Canceled || res != nil {
		t.Fatalf("mark-pass cancel: res=%v err=%v, want nil and context.Canceled", res, err)
	}
	if got := m2.Snapshot().NeighborSearches; got != first {
		t.Fatalf("mark-pass cancel: NeighborSearches = %d, want the first tile's %d", got, first)
	}
}
