package vdbscan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vdbscan/internal/data"
	"vdbscan/internal/dbscan"
)

func testPoints(t *testing.T, n int) []Point {
	t.Helper()
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: n, NoiseFrac: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Points
}

func TestClusterOneShot(t *testing.T) {
	pts := testPoints(t, 10000) // one synthetic cluster + noise
	res, err := Cluster(pts, Params{Eps: 3, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(pts) {
		t.Fatalf("labels = %d", res.Len())
	}
	if res.NumClusters < 1 {
		t.Errorf("clusters = %d", res.NumClusters)
	}
	if res.NumNoise() == 0 {
		t.Error("expected noise at 20% uniform fraction")
	}
	for _, l := range res.Labels {
		if l == 0 {
			t.Fatal("unclassified label in output")
		}
	}
}

func TestClusterInvalidParams(t *testing.T) {
	if _, err := Cluster(testPoints(t, 100), Params{Eps: 0, MinPts: 4}); err == nil {
		t.Error("eps=0 accepted")
	}
}

// TestNonFiniteEpsRejected: a NaN or infinite ε is an error naming eps
// from Cluster and from ClusterVariants, whichever variant carries it —
// not an all-noise clustering or a grid-layout error.
func TestNonFiniteEpsRejected(t *testing.T) {
	ix := NewIndex(testPoints(t, 500))
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := Params{Eps: eps, MinPts: 2}
		if _, err := ix.Cluster(bad); err == nil || !strings.Contains(err.Error(), "eps") {
			t.Errorf("Cluster(eps=%g): err = %v, want an error naming eps", eps, err)
		}
		for _, params := range [][]Params{{bad, {Eps: 3, MinPts: 4}}, {{Eps: 3, MinPts: 4}, bad}} {
			if _, err := ix.ClusterVariants(params); err == nil || !strings.Contains(err.Error(), "eps") {
				t.Errorf("ClusterVariants(%v): err = %v, want an error naming eps", params, err)
			}
		}
	}
}

func TestIndexReuseAcrossCalls(t *testing.T) {
	pts := testPoints(t, 5000)
	idx := NewIndex(pts, WithR(32))
	if idx.Len() != len(pts) || idx.R() != 32 {
		t.Fatalf("index: len=%d r=%d", idx.Len(), idx.R())
	}
	a, err := idx.Cluster(Params{Eps: 3, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := idx.Cluster(Params{Eps: 3, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same params on same index gave different labels")
		}
	}
}

func TestNewIndexDoesNotRetainInput(t *testing.T) {
	pts := testPoints(t, 1000)
	idx := NewIndex(pts)
	before, _ := idx.Cluster(Params{Eps: 3, MinPts: 4})
	// Mutating the caller's slice must not affect the index.
	for i := range pts {
		pts[i] = Point{X: -999, Y: -999}
	}
	after, _ := idx.Cluster(Params{Eps: 3, MinPts: 4})
	for i := range before.Labels {
		if before.Labels[i] != after.Labels[i] {
			t.Fatal("index aliased the caller's point slice")
		}
	}
}

func TestClusterVariantsBasics(t *testing.T) {
	pts := testPoints(t, 8000)
	params := CartesianVariants([]float64{2, 3}, []int{4, 8})
	run, err := ClusterVariants(pts, params, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Results) != 4 {
		t.Fatalf("results = %d", len(run.Results))
	}
	for i, r := range run.Results {
		if r.Params != params[i] {
			t.Errorf("result %d params %v != input %v", i, r.Params, params[i])
		}
		if r.Clustering == nil || r.Clustering.Len() != len(pts) {
			t.Fatalf("result %d missing clustering", i)
		}
		if r.SourceIndex >= 0 {
			src := params[r.SourceIndex]
			if !CanReuse(r.Params, src) {
				t.Errorf("result %d reused incompatible source %v", i, src)
			}
		}
	}
	if run.Makespan <= 0 || run.TotalWork <= 0 || run.Threads != 2 {
		t.Errorf("run bookkeeping: %+v", run)
	}
}

func TestClusterVariantsMatchesSingleCluster(t *testing.T) {
	pts := testPoints(t, 6000)
	params := CartesianVariants([]float64{2, 4}, []int{4, 12})
	idx := NewIndex(pts)
	run, err := idx.ClusterVariants(params)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		want, err := idx.Cluster(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Quality(want, run.Results[i].Clustering)
		if err != nil {
			t.Fatal(err)
		}
		if q < 0.99 {
			t.Errorf("variant %v quality = %g, want >= 0.99", p, q)
		}
	}
}

func TestClusterVariantsEmpty(t *testing.T) {
	if _, err := ClusterVariants(testPoints(t, 100), nil); err == nil {
		t.Error("empty variant list accepted")
	}
}

func TestClusterVariantsReuseObserved(t *testing.T) {
	pts := testPoints(t, 8000)
	params := CartesianVariants([]float64{2, 3, 4}, []int{4, 8, 16})
	run, err := ClusterVariants(pts, params) // T=1 default
	if err != nil {
		t.Fatal(err)
	}
	if run.MeanFractionReused() <= 0 {
		t.Error("no reuse observed on a chainable variant set")
	}
	scratch := 0
	for _, r := range run.Results {
		if r.FromScratch {
			scratch++
		}
	}
	if scratch == len(params) {
		t.Error("every variant ran from scratch")
	}
}

func TestWithoutReuse(t *testing.T) {
	pts := testPoints(t, 4000)
	params := CartesianVariants([]float64{2, 3}, []int{4, 8})
	run, err := ClusterVariants(pts, params, WithoutReuse())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range run.Results {
		if !r.FromScratch {
			t.Error("WithoutReuse still reused")
		}
	}
}

func TestWithWorkAccumulates(t *testing.T) {
	pts := testPoints(t, 3000)
	var w Work
	if _, err := Cluster(pts, Params{Eps: 3, MinPts: 4}, WithIndexKind(IndexRTree), WithWork(&w)); err != nil {
		t.Fatal(err)
	}
	if w.NeighborSearches != int64(len(pts)) {
		t.Errorf("R-tree searches = %d, want %d", w.NeighborSearches, len(pts))
	}
	// The default grid's cell-major pass searches only the points of cells
	// too sparse to be all-core.
	var wg Work
	if _, err := Cluster(pts, Params{Eps: 3, MinPts: 4}, WithWork(&wg)); err != nil {
		t.Fatal(err)
	}
	if wg.NeighborSearches <= 0 || wg.NeighborSearches >= int64(len(pts)) {
		t.Errorf("grid searches = %d, want some of %d", wg.NeighborSearches, len(pts))
	}
	// A sweep's searches are its ε-chain heads': the smaller-minpts links
	// replay them and add none.
	var w2, heads Work
	if _, err := ClusterVariants(pts, CartesianVariants([]float64{2, 3}, []int{4, 8}), WithWork(&w2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ClusterVariants(pts, CartesianVariants([]float64{2, 3}, []int{8}), WithWork(&heads)); err != nil {
		t.Fatal(err)
	}
	if w2.NeighborSearches == 0 || w2.NeighborSearches != heads.NeighborSearches {
		t.Errorf("variant work = %+v, chain heads alone %+v", w2, heads)
	}
}

func TestQualityAPI(t *testing.T) {
	pts := testPoints(t, 2000)
	a, _ := Cluster(pts, Params{Eps: 3, MinPts: 4})
	q, err := Quality(a, a)
	if err != nil || q != 1 {
		t.Errorf("self quality = %g, %v", q, err)
	}
}

func TestCartesianVariants(t *testing.T) {
	vs := CartesianVariants([]float64{0.1, 0.2}, []int{1, 2})
	want := []Params{{Eps: 0.1, MinPts: 1}, {Eps: 0.1, MinPts: 2}, {Eps: 0.2, MinPts: 1}, {Eps: 0.2, MinPts: 2}}
	if len(vs) != 4 {
		t.Fatalf("len = %d", len(vs))
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Errorf("vs[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
	if got := CartesianVariants(nil, []int{1}); len(got) != 0 {
		t.Error("empty eps should produce empty set")
	}
}

func TestCanReuseAPI(t *testing.T) {
	if !CanReuse(Params{Eps: 0.6, MinPts: 4}, Params{Eps: 0.2, MinPts: 32}) {
		t.Error("valid reuse rejected")
	}
	if CanReuse(Params{Eps: 0.2, MinPts: 32}, Params{Eps: 0.6, MinPts: 4}) {
		t.Error("invalid reuse accepted")
	}
}

func TestNoisePointsLabeled(t *testing.T) {
	// Far-apart points: everything noise.
	pts := []Point{{X: 0, Y: 0}, {X: 100, Y: 100}, {X: 200, Y: 50}}
	res, err := Cluster(pts, Params{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d label = %d, want Noise", i, l)
		}
	}
}

func TestOptionCoverage(t *testing.T) {
	pts := testPoints(t, 2000)
	// WithBinWidth changes the pre-index sort granularity but never the
	// clustering result.
	a, err := Cluster(pts, Params{Eps: 3, MinPts: 4}, WithBinWidth(0.5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(pts, Params{Eps: 3, MinPts: 4}, WithBinWidth(4))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Quality(a, b)
	if q < 0.999 {
		t.Errorf("bin width changed clustering: quality %g", q)
	}
	// The run options move work between goroutines, never a label: every
	// variant's bytes are Cluster's.
	params := CartesianVariants([]float64{2.5, 3.5}, []int{4, 8})
	for oi, opts := range [][]Option{
		{WithThreads(3)},
		{WithoutReuse()},
		{WithThreads(2), WithoutReuse()},
	} {
		run, err := ClusterVariants(pts, params, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, vr := range run.Results {
			ref, _ := Cluster(pts, params[i])
			if !slices.Equal(ref.Labels, vr.Clustering.Labels) {
				t.Errorf("opts %d variant %v: labels differ from Cluster", oi, vr.Params)
			}
		}
	}
}

func TestIndexPointsAccessor(t *testing.T) {
	pts := testPoints(t, 100)
	idx := NewIndex(pts)
	got := idx.Points()
	if len(got) != len(pts) {
		t.Fatalf("Points len = %d", len(got))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatal("Points order not preserved")
		}
	}
}

func TestVariantResultDuration(t *testing.T) {
	pts := testPoints(t, 1000)
	run, err := ClusterVariants(pts, CartesianVariants([]float64{3}, []int{4}))
	if err != nil {
		t.Fatal(err)
	}
	if run.Results[0].Duration() < 0 {
		t.Error("negative duration")
	}
	if run.Results[0].Duration() > run.Makespan {
		t.Error("variant duration exceeds makespan")
	}
}

func TestConcurrentRunsOnSharedIndex(t *testing.T) {
	// The immutability promise: many goroutines may cluster on one Index.
	pts := testPoints(t, 3000)
	idx := NewIndex(pts)
	ref, err := idx.Cluster(Params{Eps: 3, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := idx.Cluster(Params{Eps: 3, MinPts: 4})
			if err != nil {
				errs[g] = err
				return
			}
			if q, _ := Quality(ref, res); q != 1 {
				errs[g] = fmt.Errorf("goroutine %d got different labels (q=%g)", g, q)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWithContextCancellation(t *testing.T) {
	pts := testPoints(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ClusterVariants(pts, CartesianVariants([]float64{3}, []int{4}), WithContext(ctx))
	if err == nil {
		t.Fatal("canceled context accepted")
	}
	// nil context falls back to Background.
	if _, err := ClusterVariants(pts, CartesianVariants([]float64{3}, []int{4}), WithContext(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalAPI(t *testing.T) {
	if _, err := NewIncremental(Params{Eps: 0, MinPts: 3}); err == nil {
		t.Error("bad params accepted")
	}
	var w Work
	inc, err := NewIncremental(Params{Eps: 1, MinPts: 3}, WithWork(&w))
	if err != nil {
		t.Fatal(err)
	}
	inc.InsertBatch([]Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0.25, Y: 0.4}})
	res := inc.Labels()
	if res.NumClusters != 1 || inc.LiveLen() != 3 || inc.Len() != 3 {
		t.Fatalf("after inserts: %v live=%d", res, inc.LiveLen())
	}
	if w.NeighborSearches == 0 {
		t.Error("work not tracked")
	}
	if err := inc.Delete(1); err != nil {
		t.Fatal(err)
	}
	if inc.Labels().NumClusters != 0 {
		t.Error("minimal cluster should dissolve on delete")
	}
	// Streaming result must match a batch run over the live points.
	inc2, _ := NewIncremental(Params{Eps: 3, MinPts: 4})
	pts := testPoints(t, 2000)
	inc2.InsertBatch(pts)
	batch, _ := Cluster(pts, Params{Eps: 3, MinPts: 4})
	q, err := Quality(batch, inc2.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.99 {
		t.Errorf("incremental vs batch quality = %g", q)
	}
}

func TestClusterIntraThreadsMatchesSequential(t *testing.T) {
	pts := testPoints(t, 8000)
	idx := NewIndex(pts)
	p := Params{Eps: 3, MinPts: 4}
	seq, err := idx.Cluster(p) // default: sequential
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		par, err := idx.Cluster(p, WithThreads(n))
		if err != nil {
			t.Fatal(err)
		}
		if par.NumClusters != seq.NumClusters {
			t.Fatalf("intra=%d: clusters %d != %d", n, par.NumClusters, seq.NumClusters)
		}
		for i := range seq.Labels {
			if par.Labels[i] != seq.Labels[i] {
				t.Fatalf("intra=%d: label[%d] = %d, want %d", n, i, par.Labels[i], seq.Labels[i])
			}
		}
		q, err := Quality(seq, par)
		if err != nil {
			t.Fatal(err)
		}
		if q != 1.0 {
			t.Fatalf("intra=%d: quality = %g, want 1.0", n, q)
		}
	}
}

func TestClusterHonorsContextCancellation(t *testing.T) {
	pts := testPoints(t, 5000)
	idx := NewIndex(pts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Params{Eps: 3, MinPts: 4}
	// The facade wraps internal errors ("vdbscan: ..."); the contract is
	// errors.Is matchability, not identity.
	if _, err := idx.Cluster(p, WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: err = %v, want context.Canceled", err)
	}
	if _, err := idx.Cluster(p, WithContext(ctx), WithThreads(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel: err = %v, want context.Canceled", err)
	}
}

func TestClusterVariantsTwoLevel(t *testing.T) {
	// Every link runs its passes at the full width whatever the pool is
	// doing: more workers than chains, fewer, and all from scratch must
	// give the one-thread run's labels and its counted work.
	pts := testPoints(t, 5000)
	idx := NewIndex(pts)
	params := CartesianVariants([]float64{2, 3, 4}, []int{4, 8})
	for _, reuse := range [][]RunOption{nil, {WithoutReuse()}} {
		var baseWork Work
		base, err := idx.ClusterVariants(params, append(reuse, WithThreads(1), WithWork(&baseWork))...)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{2, 4} {
			var work Work
			run, err := idx.ClusterVariants(params, append(reuse, WithThreads(threads), WithWork(&work))...)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Results) != len(params) {
				t.Fatalf("results = %d, want %d", len(run.Results), len(params))
			}
			for i, vr := range run.Results {
				if !slices.Equal(vr.Clustering.Labels, base.Results[i].Clustering.Labels) {
					t.Fatalf("T=%d reuse=%v variant %d (%+v): labels differ from T=1", threads, reuse == nil, i, vr.Params)
				}
			}
			if work != baseWork {
				t.Fatalf("T=%d reuse=%v: work %+v, at T=1 %+v", threads, reuse == nil, work, baseWork)
			}
		}
	}
}

// TestClusterVariantsConcurrentEpsSets: two goroutines sweep one index with
// different ε sets at once, so each call's declaration drops the other's
// cell decompositions while its heads run. Every variant must still be
// dbscan.Run's labels remapped to the caller's order, at 1, 2 and 8
// threads. Run it under -race.
func TestClusterVariantsConcurrentEpsSets(t *testing.T) {
	idx := NewIndex(testPoints(t, 3000))
	sets := [][]Params{
		CartesianVariants([]float64{2, 3, 4}, []int{12, 4}),
		CartesianVariants([]float64{2.5, 3, 5}, []int{8, 3}),
	}
	want := map[Params][]int32{}
	for _, set := range sets {
		for _, p := range set {
			res, err := dbscan.Run(idx.ix, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = res.Remap(idx.ix.Fwd).Labels
		}
	}
	for _, threads := range []int{1, 2, 8} {
		errs := make([]error, len(sets))
		var wg sync.WaitGroup
		for g, set := range sets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3 && errs[g] == nil; round++ {
					run, err := idx.ClusterVariants(set, WithThreads(threads))
					if err != nil {
						errs[g] = err
						return
					}
					for _, vr := range run.Results {
						if !slices.Equal(vr.Clustering.Labels, want[vr.Params]) {
							errs[g] = fmt.Errorf("T=%d round %d %v: labels differ from dbscan.Run", threads, round, vr.Params)
						}
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestClusterVariantsHugeWidth: the pool starts no more workers than there
// are chains, so a width far above the chain count costs neither pool
// goroutines nor per-worker state, while every link still runs its passes
// at that width — whose goroutines are bounded by the pass's work units.
func TestClusterVariantsHugeWidth(t *testing.T) {
	pts := testPoints(t, 5000)
	idx := NewIndex(pts)
	params := CartesianVariants([]float64{2, 3, 4}, []int{4, 8}) // three ε-chains
	base, err := idx.ClusterVariants(params, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var peak int
	run, err := idx.ClusterVariants(params, WithThreads(1<<16), WithProgress(func(ProgressEvent) {
		peak = max(peak, runtime.NumGoroutine())
	}))
	if err != nil {
		t.Fatal(err)
	}
	if peak > before+200 {
		t.Errorf("peak goroutines %d, %d before the run", peak, before)
	}
	for i, vr := range run.Results {
		if vr.Worker >= 3 {
			t.Errorf("variant %d ran on pool worker %d of a three-chain sweep", i, vr.Worker)
		}
		if !slices.Equal(vr.Clustering.Labels, base.Results[i].Clustering.Labels) {
			t.Fatalf("variant %d (%+v): labels differ from T=1", i, vr.Params)
		}
	}
}

// TestWithTracerChromeTrace drives the public tracing API end to end: run a
// variant set with a tracer attached, export Chrome trace JSON, and check
// the ISSUE acceptance shape — valid JSON with one lifecycle span per
// variant carrying seed-source and reuse-fraction annotations.
func TestWithTracerChromeTrace(t *testing.T) {
	pts := testPoints(t, 4000)
	params := CartesianVariants([]float64{2, 3, 4}, []int{4, 8})
	tr := NewTracer()
	run, err := ClusterVariants(pts, params, WithThreads(3), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[int]map[string]any{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Pid == 2 && e.Args["fraction_reused"] != nil {
			spans[e.Tid] = e.Args
		}
	}
	if len(spans) != len(params) {
		t.Fatalf("got %d variant lifecycle spans, want %d", len(spans), len(params))
	}
	for i, r := range run.Results {
		args := spans[i]
		if args == nil {
			t.Fatalf("variant %d has no lifecycle span", i)
		}
		if got := int(args["seed_source"].(float64)); got != r.SourceIndex {
			t.Errorf("variant %d: trace seed_source %d, result %d", i, got, r.SourceIndex)
		}
		if got := args["fraction_reused"].(float64); got != r.FractionReused {
			t.Errorf("variant %d: trace fraction_reused %v, result %v", i, got, r.FractionReused)
		}
	}
	buf.Reset()
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "6 variants done") {
		t.Errorf("timeline header missing variant count:\n%s", buf.String())
	}
}

// TestTracedVariantsByteIdentical is the acceptance criterion that tracing
// changes nothing: runs with a tracer attached, or a nil one, must match
// an untraced run label for label.
func TestTracedVariantsByteIdentical(t *testing.T) {
	pts := testPoints(t, 4000)
	params := CartesianVariants([]float64{2, 3.5}, []int{4, 8, 12})
	base, err := ClusterVariants(pts, params, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]Option{
		"tracer":     {WithThreads(2), WithTracer(NewTracer())},
		"nil-tracer": {WithThreads(2), WithTracer(nil)},
	} {
		run, err := ClusterVariants(pts, params, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range base.Results {
			a, b := base.Results[i].Clustering, run.Results[i].Clustering
			if a.NumClusters != b.NumClusters {
				t.Fatalf("%s variant %d: %d clusters, want %d", name, i, b.NumClusters, a.NumClusters)
			}
			for j := range a.Labels {
				if a.Labels[j] != b.Labels[j] {
					t.Fatalf("%s variant %d: label[%d] = %d, want %d", name, i, j, b.Labels[j], a.Labels[j])
				}
			}
		}
	}
}

// TestWithProgressDelivery: the public progress callback fires once per
// variant, serially, with Done counting 1..n.
func TestWithProgressDelivery(t *testing.T) {
	pts := testPoints(t, 3000)
	params := CartesianVariants([]float64{2, 3}, []int{4, 8})
	var events []ProgressEvent
	_, err := ClusterVariants(pts, params, WithThreads(2),
		WithProgress(func(e ProgressEvent) { events = append(events, e) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(params) {
		t.Fatalf("got %d progress events, want %d", len(events), len(params))
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != len(params) {
			t.Fatalf("event %d: Done=%d Total=%d, want %d/%d", i, e.Done, e.Total, i+1, len(params))
		}
		if e.Elapsed < 0 {
			t.Fatalf("event %d: negative Elapsed %v", i, e.Elapsed)
		}
	}
}

// TestClusterSingleVariantTraced: the single-variant Cluster path also
// produces a complete one-span trace, sequential or parallel.
func TestClusterSingleVariantTraced(t *testing.T) {
	pts := testPoints(t, 3000)
	for name, opts := range map[string][]Option{
		"sequential": nil,
		"parallel":   {WithThreads(3)},
	} {
		tr := NewTracer()
		var got ProgressEvent
		all := append([]Option{WithTracer(tr), WithProgress(func(e ProgressEvent) { got = e })}, opts...)
		if _, err := Cluster(pts, Params{Eps: 3, MinPts: 4}, all...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("%s: trace not valid JSON", name)
		}
		if !strings.Contains(buf.String(), "fraction_reused") {
			t.Errorf("%s: no lifecycle span in trace", name)
		}
		if got.Done != 1 || got.Total != 1 {
			t.Errorf("%s: progress %d/%d, want 1/1", name, got.Done, got.Total)
		}
	}
}
