package dbscan

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/data"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
)

func TestRunParallelValidation(t *testing.T) {
	ix := BuildIndex([]geom.Point{{X: 0, Y: 0}}, IndexOptions{})
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
		ix := BuildIndex(pts, IndexOptions{R: 16})
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
	ix := BuildIndex(pts, IndexOptions{R: 16})
	p := Params{Eps: 0.8, MinPts: 4}
	want, _ := Run(ix, p, nil)
	got, err := RunParallel(ix, p, 0, nil) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "gomaxprocs")
}

func TestRunParallelEmptyAndDegenerate(t *testing.T) {
	ix := BuildIndex(nil, IndexOptions{})
	res, err := RunParallel(ix, Params{Eps: 1, MinPts: 4}, 4, nil)
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	ix = BuildIndex([]geom.Point{{X: 1, Y: 1}}, IndexOptions{})
	res, _ = RunParallel(ix, Params{Eps: 1, MinPts: 2}, 4, nil)
	if res.NumNoise() != 1 {
		t.Error("single point should be noise")
	}
}

func TestRunParallelSearchCountMatches(t *testing.T) {
	// Where no cell is dense the pass searches each point exactly once, over
	// the candidates Run examines, and the per-worker batched flushes lose
	// no counts: every work counter equals Run's. That holds on the R-tree
	// kind, which has no cells at all, and on a grid with MinPts above any
	// cell's population — so the cell-major pass costs at worst what
	// per-point searching costs, plus one scan of the cell counts.
	pts := blobs(3, 200, 100, 25, 0.6, 103)
	for name, c := range map[string]struct {
		kind IndexKind
		p    Params
	}{
		"rtree":               {IndexRTree, Params{Eps: 0.7, MinPts: 4}},
		"grid, no dense cell": {IndexGrid, Params{Eps: 0.7, MinPts: 60}},
	} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: c.kind})
		var mSeq, mPar metrics.Counters
		want, err := Run(ix, c.p, &mSeq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunParallel(ix, c.p, 4, &mPar)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, name)
		if want.NumClusters == 0 {
			t.Fatalf("%s: degenerate fixture, no cluster", name)
		}
		if got := mPar.Snapshot().NeighborSearches; got != int64(len(pts)) {
			t.Errorf("%s: searches = %d, want %d", name, got, len(pts))
		}
		if mPar.Snapshot() != mSeq.Snapshot() {
			t.Errorf("%s: work counters diverge: parallel %v vs sequential %v",
				name, mPar.Snapshot(), mSeq.Snapshot())
		}
	}
}

func TestRunParallelAllLabeled(t *testing.T) {
	pts := blobs(3, 150, 150, 25, 0.6, 104)
	ix := BuildIndex(pts, IndexOptions{R: 16})
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
	ix := BuildIndex(pts, IndexOptions{R: 16})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunParallelOpts(ctx, ix, Params{Eps: 1, MinPts: 4},
		ParallelOptions{Workers: 4}, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	pts := blobs(4, 500, 200, 30, 0.7, 106)
	ix := BuildIndex(pts, IndexOptions{R: 16})
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

// waitHelper is a test Helper that runs every offered help function on n
// donor goroutines — the shape internal/sched's donor pool provides.
type waitHelper struct{ donors int }

func (h *waitHelper) Offer(_ int32, help func()) (stop func()) {
	var wg sync.WaitGroup
	for i := 0; i < h.donors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			help()
		}()
	}
	return wg.Wait
}

func TestRunParallelWithHelperMatches(t *testing.T) {
	pts := blobs(4, 300, 150, 25, 0.6, 107)
	ix := BuildIndex(pts, IndexOptions{R: 16})
	p := Params{Eps: 0.8, MinPts: 4}
	want, _ := Run(ix, p, nil)
	for _, donors := range []int{1, 3, 7} {
		got, err := RunParallelOpts(context.Background(), ix, p,
			ParallelOptions{Workers: 1, Helper: &waitHelper{donors: donors}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, "helper")
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
	ix := BuildIndex(ds.Points, IndexOptions{R: 16})
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
	ix := BuildIndex(ds.Points, IndexOptions{R: 70})
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
	ix := BuildIndex(ds.Points, IndexOptions{R: 70})
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
