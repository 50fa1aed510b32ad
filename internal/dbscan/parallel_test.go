package dbscan

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
)

func TestRunParallelValidation(t *testing.T) {
	ix := BuildIndex([]geom.Point{{X: 0, Y: 0}}, IndexOptions{Kind: IndexRTree})
	if _, err := RunParallel(ix, Params{Eps: 0, MinPts: 4}, 2, nil); err == nil {
		t.Error("bad params accepted")
	}
}

// requireIdentical asserts got is byte-identical to want: same cluster
// count, same labels (including cluster numbering and the noise set).
func requireIdentical(t *testing.T, got, want *cluster.Result, tag string) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: clusters %d vs %d", tag, got.NumClusters, want.NumClusters)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: lengths %d vs %d", tag, len(got.Labels), len(want.Labels))
	}
	for i := range got.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", tag, i, got.Labels[i], want.Labels[i])
		}
	}
}

// synthetic builds the property-test datasets from internal/data: uniform
// (all-noise), clustered (cF and cV classes), and degenerate shapes.
func synthetic(t *testing.T) map[string][]geom.Point {
	t.Helper()
	gen := func(cfg data.SynthConfig) []geom.Point {
		ds, err := data.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Points
	}
	dup := make([]geom.Point, 600)
	for i := range dup {
		dup[i] = geom.Point{X: 42.5, Y: 17.25}
	}
	return map[string][]geom.Point{
		"uniform":   gen(data.SynthConfig{Class: data.ClassCF, N: 3000, NoiseFrac: 1, Seed: 11}),
		"clustered": gen(data.SynthConfig{Class: data.ClassCF, N: 4000, NoiseFrac: 0.15, Clusters: 6, Seed: 12}),
		"skewed":    gen(data.SynthConfig{Class: data.ClassCV, N: 4000, NoiseFrac: 0.05, Clusters: 5, Seed: 13}),
		"all-dup":   dup,
		"tiny":      {{X: 1, Y: 1}, {X: 1.1, Y: 1}, {X: 9, Y: 9}},
		"single":    {{X: 1, Y: 1}},
		"empty":     nil,
	}
}

// TestRunParallelMatchesSequentialExactly is the property test of the
// intra-variant tentpole: for 1..8 workers, RunParallel must reproduce
// sequential Run exactly — identical labels, cluster numbering, and noise
// set — on uniform, clustered, and degenerate datasets.
func TestRunParallelMatchesSequentialExactly(t *testing.T) {
	params := []Params{
		{Eps: 3, MinPts: 4},
		{Eps: 1.5, MinPts: 8},
		{Eps: 0.5, MinPts: 1},
		{Eps: 8, MinPts: 700}, // MinPts > |all-dup| exercises the all-noise path
	}
	for name, pts := range synthetic(t) {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
		for _, p := range params {
			want, err := Run(ix, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 8; workers++ {
				got, err := RunParallel(ix, p, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, got, want, name+"/"+p.String())
			}
		}
	}
}

func TestRunParallelDefaultWorkers(t *testing.T) {
	pts := blobs(3, 200, 100, 25, 0.6, 100)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	p := Params{Eps: 0.8, MinPts: 4}
	want, _ := Run(ix, p, nil)
	got, err := RunParallel(ix, p, 0, nil) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "gomaxprocs")
}

func TestRunParallelEmptyAndDegenerate(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{Kind: IndexRTree})
	res, err := RunParallel(ix, Params{Eps: 1, MinPts: 4}, 4, nil)
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	ix = BuildIndex([]geom.Point{{X: 1, Y: 1}}, IndexOptions{Kind: IndexRTree})
	res, _ = RunParallel(ix, Params{Eps: 1, MinPts: 2}, 4, nil)
	if res.NumNoise() != 1 {
		t.Error("single point should be noise")
	}
}

func TestRunParallelSearchCountMatches(t *testing.T) {
	// Where every point is searched the pass searches each one exactly
	// once, over the candidates Run examines, and the per-worker batched
	// flushes lose no counts: every work counter equals Run's. That holds on
	// the R-tree kind, which has no cells at all. On a grid with no dense
	// cell every cell is counted: each point is still one search, but one
	// that stops at MinPts neighbours within a clipped block, so the pass
	// searches n times, examines no more candidates than Run, and counts
	// the same at every width.
	pts := blobs(3, 200, 100, 25, 0.6, 103)
	for name, c := range map[string]struct {
		kind  IndexKind
		p     Params
		exact bool
	}{
		"rtree":               {IndexRTree, Params{Eps: 0.7, MinPts: 4}, true},
		"grid, minpts 8":      {IndexGrid, Params{Eps: 0.2, MinPts: 8}, false},
		"grid, no dense cell": {IndexGrid, Params{Eps: 0.7, MinPts: 60}, false},
	} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: c.kind})
		var mSeq metrics.Counters
		want, err := Run(ix, c.p, &mSeq)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumClusters == 0 {
			t.Fatalf("%s: degenerate fixture, no cluster", name)
		}
		nCounted := 0
		if g := ix.cellDecomposition(c.p.Eps); g != nil {
			s := onePass{minPts: c.p.MinPts}
			cols, rows := g.Shape()
			for r := int32(0); r < rows; r++ {
				for col := int32(0); col < cols; col++ {
					switch s.class(g.CellCount(r, col)) {
					case dense:
						t.Fatalf("%s: fixture has a dense cell", name)
					case counted:
						nCounted++
					}
				}
			}
		}
		if c.exact != (nCounted == 0) {
			t.Fatalf("%s: fixture has %d counted cells", name, nCounted)
		}
		var first metrics.Snapshot
		for k, workers := range []int{1, 4} {
			var mPar metrics.Counters
			got, err := RunParallel(ix, c.p, workers, &mPar)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s workers=%d", name, workers)
			requireIdentical(t, got, want, tag)
			snap, seq := mPar.Snapshot(), mSeq.Snapshot()
			if snap.NeighborSearches != int64(len(pts)) {
				t.Errorf("%s: searches = %d, want %d", tag, snap.NeighborSearches, len(pts))
			}
			if c.exact && snap != seq {
				t.Errorf("%s: work counters diverge: parallel %v vs sequential %v", tag, snap, seq)
			}
			if snap.CandidatesExamined > seq.CandidatesExamined {
				t.Errorf("%s: %d candidates, Run examines %d", tag, snap.CandidatesExamined, seq.CandidatesExamined)
			}
			if k == 0 {
				first = snap
			} else if snap != first {
				t.Errorf("%s: work counters %v, at one worker %v", tag, snap, first)
			}
		}
	}
}

func TestRunParallelAllLabeled(t *testing.T) {
	pts := blobs(3, 150, 150, 25, 0.6, 104)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	res, err := RunParallel(ix, Params{Eps: 0.7, MinPts: 4}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Labels {
		if l == cluster.Unclassified {
			t.Fatalf("point %d unclassified", i)
		}
	}
}

func TestRunParallelCancellation(t *testing.T) {
	pts := blobs(4, 500, 200, 30, 0.7, 105)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunParallelOpts(ctx, ix, Params{Eps: 1, MinPts: 4},
		ParallelOptions{Workers: 4}, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	pts := blobs(4, 500, 200, 30, 0.7, 106)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, ix, Params{Eps: 1, MinPts: 4}, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// A background context run is unaffected.
	if _, err := RunCtx(context.Background(), ix, Params{Eps: 1, MinPts: 4}, nil); err != nil {
		t.Errorf("background run failed: %v", err)
	}
}

// countdownCtx is a context whose Err starts reporting cancellation at its
// nth call, making the cancellation point of a parallel run deterministic
// (the stdlib's cancel happens at an arbitrary instant relative to chunk
// boundaries).
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.after {
		return context.Canceled
	}
	return nil
}

// TestRunParallelCancelFlushesLocalCounters is the regression test for the
// batched-counter audit: when a run is canceled mid-way, every worker's
// metrics.Local batch must still reach the shared Counters (the flush that
// ends every chunk), so no performed ε-search goes uncounted.
//
// With one worker and cancellation at the 3rd Err() call, the pass
// deterministically completes exactly two 256-point chunks — each point
// ε-searched once and flushed once per chunk — before observing the cancel,
// so the shared counters must read exactly 512 searches.
func TestRunParallelCancelFlushesLocalCounters(t *testing.T) {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: 2048, NoiseFrac: 0.2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(ds.Points, IndexOptions{R: 16, Kind: IndexRTree})
	var m metrics.Counters
	ctx := &countdownCtx{Context: context.Background(), after: 3}
	res, err := RunParallelOpts(ctx, ix, Params{Eps: 1, MinPts: 4},
		ParallelOptions{Workers: 1}, &m)
	if err == nil || res != nil {
		t.Fatalf("expected canceled run, got res=%v err=%v", res, err)
	}
	snap := m.Snapshot()
	if want := int64(2 * parallelChunk); snap.NeighborSearches != want {
		t.Fatalf("NeighborSearches = %d after mid-run cancel, want %d (Local batch dropped?)",
			snap.NeighborSearches, want)
	}
	if snap.CandidatesExamined == 0 || snap.NodesVisited == 0 {
		t.Fatalf("candidate/node counters empty after cancel: %+v", snap)
	}

	// Multi-worker runs cancel at nondeterministic chunk counts, but the
	// invariant stands: whatever chunks completed were flushed whole.
	for _, workers := range []int{2, 4} {
		var mw metrics.Counters
		cw := &countdownCtx{Context: context.Background(), after: 5}
		if _, err := RunParallelOpts(cw, ix, Params{Eps: 1, MinPts: 4},
			ParallelOptions{Workers: workers}, &mw); err == nil {
			t.Fatalf("workers=%d: expected canceled run", workers)
		}
		s := mw.Snapshot()
		if s.NeighborSearches == 0 || s.NeighborSearches%parallelChunk != 0 {
			t.Fatalf("workers=%d: NeighborSearches = %d, want a positive multiple of %d",
				workers, s.NeighborSearches, parallelChunk)
		}
	}
}

// TestNeighborSearchZeroAlloc covers the expansion hot path's counter
// flavor: NeighborSearch into shared atomic Counters (what Run's BFS
// expansion and VariantDBSCAN's EXPANDCLUSTER call per frontier point) must
// not allocate with a warmed destination buffer — tracing disabled adds
// nothing to this path because span events are per-phase, not per-search.
func TestNeighborSearchZeroAlloc(t *testing.T) {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: 20_000, NoiseFrac: 0.15, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(ds.Points, IndexOptions{R: 70, Kind: IndexRTree})
	var m metrics.Counters
	dst := make([]int32, 0, 4096)
	for i := 0; i < len(ix.Pts); i += 37 { // warm dst to its high-water mark
		dst = ix.NeighborSearch(ix.Pts[i], 2, &m, dst[:0])
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst = ix.NeighborSearch(ix.Pts[i%len(ix.Pts)], 2, &m, dst[:0])
		i += 41
	})
	if allocs != 0 {
		t.Fatalf("NeighborSearch allocated %.1f times per run, want 0", allocs)
	}
}

// TestNeighborSearchLocalZeroAlloc asserts the paper-critical hot path —
// NeighborSearchLocal over the flat index with a warmed destination buffer
// and a per-worker metrics.Local — runs without heap allocation.
func TestNeighborSearchLocalZeroAlloc(t *testing.T) {
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: 20_000, NoiseFrac: 0.15, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildIndex(ds.Points, IndexOptions{R: 70, Kind: IndexRTree})
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
		t.Fatalf("NeighborSearchLocal allocated %.1f times per run, want 0", allocs)
	}
}

// TestRunLinkWidthsMatchRun: a from-scratch cell-major run attaches each
// dense cell's points under its first without a Find, and labelCores reads
// the numbering off the parents in one ascending pass, so both lean on
// index-ordered parents whichever worker linked what. Dense cells, sparse
// cells, many clusters spread over the index range and a few NaN points; at
// every width the labels must be Run's bytes and the work counters the
// same.
func TestRunLinkWidthsMatchRun(t *testing.T) {
	pts := blobs(60, 1000, 12_000, 150, 0.6, 41)
	for i := 0; i < 5; i++ {
		pts = append(pts, geom.Point{X: math.NaN(), Y: float64(i)})
	}
	ix := BuildIndex(pts, IndexOptions{Kind: IndexGrid})
	p := Params{Eps: 0.3, MinPts: 6}
	want, err := Run(ix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireDenseAndSparseCores(t, ix, p)
	if want.NumClusters < 40 || want.NumNoise() < 5 {
		t.Fatalf("degenerate fixture: %d clusters, %d noise", want.NumClusters, want.NumNoise())
	}
	var first metrics.Snapshot
	for k, workers := range []int{1, 2, 3, 8} {
		var m metrics.Counters
		got, err := RunParallelOpts(context.Background(), ix, p, ParallelOptions{Workers: workers}, &m)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, fmt.Sprintf("workers=%d", workers))
		if k == 0 {
			first = m.Snapshot()
		} else if m.Snapshot() != first {
			t.Errorf("workers=%d: work counters %v, at one worker %v", workers, m.Snapshot(), first)
		}
	}
}
