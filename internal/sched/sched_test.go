package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/variant"
)

func blobs(k, m, noise int, extent, sigma float64, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, k*m+noise)
	for c := 0; c < k; c++ {
		cx, cy := rnd.Float64()*extent, rnd.Float64()*extent
		for i := 0; i < m; i++ {
			pts = append(pts, geom.Point{
				X: cx + rnd.NormFloat64()*sigma,
				Y: cy + rnd.NormFloat64()*sigma,
			})
		}
	}
	for i := 0; i < noise; i++ {
		pts = append(pts, geom.Point{X: rnd.Float64() * extent, Y: rnd.Float64() * extent})
	}
	return pts
}

func testIndex(t *testing.T) *dbscan.Index {
	t.Helper()
	return dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
}

// testGridIndex is testIndex's point set on the default grid kind.
func testGridIndex() *dbscan.Index {
	return dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16})
}

func TestExecuteValidates(t *testing.T) {
	ix := testIndex(t)
	if _, err := Execute(ix, nil, Options{}); err == nil {
		t.Error("empty variant set accepted")
	}
	bad := variant.New([]dbscan.Params{{Eps: -1, MinPts: 4}})
	if _, err := Execute(ix, bad, Options{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestExecuteSingleVariant(t *testing.T) {
	ix := testIndex(t)
	vs := variant.New([]dbscan.Params{{Eps: 0.5, MinPts: 4}})
	rr, err := Execute(ix, vs, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 1 {
		t.Fatalf("results = %d", len(rr.Results))
	}
	if !rr.Results[0].FromScratch {
		t.Error("single variant must be from scratch")
	}
	if rr.Results[0].SourceID != -1 {
		t.Error("single variant has no source")
	}
}

func TestExecuteMatchesScratchPerVariant(t *testing.T) {
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, ix := range []*dbscan.Index{testIndex(t), testGridIndex()} {
		for _, threads := range []int{1, 4} {
			rr, err := Execute(ix, vs, Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rr.Results {
				want, _ := dbscan.Run(ix, r.Variant.Params, nil)
				if !slices.Equal(r.Result.Labels, want.Labels) {
					t.Errorf("%v T=%d variant %v: labels differ from dbscan.Run", ix.Kind, threads, r.Variant)
				}
			}
		}
	}
}

func TestExecuteResultsIndexedByOriginalID(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.8, 0.3}, []int{4, 16}) // deliberately unsorted
	rr, err := Execute(ix, vs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range rr.Results {
		if r.Variant.ID != id {
			t.Errorf("results[%d] holds variant %d", id, r.Variant.ID)
		}
		if r.Variant.Params != vs[id].Params {
			t.Errorf("results[%d] params %v != input %v", id, r.Variant.Params, vs[id].Params)
		}
	}
}

func TestExecuteDisableReuse(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5}, []int{4, 8})
	rr, err := Execute(ix, vs, Options{Threads: 2, DisableReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rr.Results {
		if !r.FromScratch || r.SourceID != -1 {
			t.Errorf("DisableReuse: variant %v reused %d", r.Variant, r.SourceID)
		}
	}
}

func TestExecuteMoreThreadsThanVariants(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.5}, []int{4, 8})
	rr, err := Execute(ix, vs, Options{Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Results) != 2 {
		t.Fatalf("results = %d", len(rr.Results))
	}
	for _, r := range rr.Results {
		if r.Result == nil {
			t.Fatal("missing result")
		}
	}
}

func TestExecuteIdenticalVariants(t *testing.T) {
	// Scenario S1 uses 16 identical variants.
	ix := testIndex(t)
	params := make([]dbscan.Params, 8)
	for i := range params {
		params[i] = dbscan.Params{Eps: 0.5, MinPts: 4}
	}
	rr, err := Execute(ix, variant.New(params), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dbscan.Run(ix, params[0], nil)
	for _, r := range rr.Results {
		if !slices.Equal(r.Result.Labels, want.Labels) {
			t.Errorf("identical variant %d: labels differ from dbscan.Run", r.Variant.ID)
		}
	}
}

// TestDefaultRunsEpsChainsOnRTree pins the ε-chain executor on the R-tree
// kind: the variants of one ε form a chain whose links after the first run
// no ε-search, and every variant's labels are dbscan.Run's bytes at every
// pool width, with reuse on or off.
func TestDefaultRunsEpsChainsOnRTree(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, disableReuse := range []bool{false, true} {
		for _, threads := range []int{1, 2, 4, 8} {
			tr := obs.NewTracer()
			rr, err := Execute(ix, vs, Options{Threads: threads, DisableReuse: disableReuse, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rr.Results {
				want, _ := dbscan.Run(ix, r.Variant.Params, nil)
				if r.Result.NumClusters != want.NumClusters || !slices.Equal(r.Result.Labels, want.Labels) {
					t.Fatalf("noreuse=%v T=%d %v: labels differ from dbscan.Run", disableReuse, threads, r.Variant.Params)
				}
				if inherited := !disableReuse && r.Variant.Params.MinPts < 16; (r.SourceID >= 0) != inherited {
					t.Fatalf("noreuse=%v T=%d %v: SourceID %d, inherited should be %v",
						disableReuse, threads, r.Variant.Params, r.SourceID, inherited)
				}
			}
			for _, e := range tr.Events() {
				if e.Kind == obs.KindDone && e.Arg >= 0 && e.Work.NeighborSearches != 0 {
					t.Fatalf("noreuse=%v T=%d v%d: inherited link ran %d ε-searches",
						disableReuse, threads, e.Variant, e.Work.NeighborSearches)
				}
			}
		}
	}
}

// TestSequentialChainHeads pins the one-goroutine path on both kinds: at
// T=1 without intra-variant workers, every chain's first link — a lone
// variant's included — is traced as one scratch phase with the counters of
// a one-worker dbscan.RunParallel (cell-major on the grid, dbscan.Run's on
// the R-tree), and the links after it replay (mark, label, border) at no
// ε-search. Every variant has dbscan.Run's bytes.
func TestSequentialChainHeads(t *testing.T) {
	ps := []dbscan.Params{{Eps: 0.5, MinPts: 8}, {Eps: 0.5, MinPts: 4}, {Eps: 0.3, MinPts: 4}}
	for _, ix := range []*dbscan.Index{testIndex(t), testGridIndex()} {
		tr := obs.NewTracer()
		rr, err := Execute(ix, variant.New(ps), Options{Threads: 1, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		phases := map[int32][]obs.Phase{}
		work := map[int32]metrics.Snapshot{}
		for _, e := range tr.Events() {
			switch e.Kind {
			case obs.KindPhaseBegin:
				phases[e.Variant] = append(phases[e.Variant], obs.Phase(e.Arg))
			case obs.KindDone:
				work[e.Variant] = e.Work
			}
		}
		replay := []obs.Phase{obs.PhaseMark, obs.PhaseLabel, obs.PhaseBorder}
		for id, p := range ps {
			tag := fmt.Sprintf("%v %v", ix.Kind, p)
			want, err := dbscan.Run(ix, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := rr.Results[id].Result; !slices.Equal(got.Labels, want.Labels) {
				t.Fatalf("%s: labels differ from dbscan.Run", tag)
			}
			v := int32(id)
			if id == 1 {
				if !slices.Equal(phases[v], replay) || work[v].NeighborSearches != 0 {
					t.Errorf("%s: phases %v, %d searches; want %v at none", tag, phases[v], work[v].NeighborSearches, replay)
				}
				continue
			}
			var m metrics.Counters
			if _, err := dbscan.RunParallel(ix, p, 1, &m); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(phases[v], []obs.Phase{obs.PhaseScratch}) || work[v] != m.Snapshot() {
				t.Errorf("%s: phases %v, work %+v; want [scratch] and one worker's %+v", tag, phases[v], work[v], m.Snapshot())
			}
		}
	}
}

// TestOrderGreedyIsCanonical pins the queue order: the chains follow the
// canonical order (ε ascending, minpts descending) that the paper's
// SCHEDGREEDY also walks, one chain per ε.
func TestOrderGreedyIsCanonical(t *testing.T) {
	vs := variant.Product([]float64{0.4, 0.2}, []int{4, 8})
	q := units(variant.Sorted(vs), true)
	want := [][]dbscan.Params{{{Eps: 0.2, MinPts: 8}, {Eps: 0.2, MinPts: 4}}, {{Eps: 0.4, MinPts: 8}, {Eps: 0.4, MinPts: 4}}}
	if len(q) != len(want) {
		t.Fatalf("%d chains, want %d", len(q), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if len(q[i]) != len(want[i]) || q[i][j].Params != want[i][j] {
				t.Fatalf("chain %d = %v, want %v", i, q[i], want[i])
			}
		}
	}
}

// TestExecuteReuseHappens: only a chain's first link clusters from
// scratch, so a 3×3 product at one worker has 3 from-scratch variants and
// the other 6 inherit every search.
func TestExecuteReuseHappens(t *testing.T) {
	for _, ix := range []*dbscan.Index{testIndex(t), testGridIndex()} {
		vs := variant.Product([]float64{0.4, 0.6, 0.8}, []int{4, 8, 16})
		rr, err := Execute(ix, vs, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		scratch, reused := 0, 0.0
		for _, r := range rr.Results {
			if r.FromScratch {
				scratch++
			}
			reused += r.FractionReused
		}
		if scratch != 3 {
			t.Errorf("%v: from-scratch count = %d, want 3 (one per ε)", ix.Kind, scratch)
		}
		if reused != 6 {
			t.Errorf("%v: summed fraction reused = %g, want 6", ix.Kind, reused)
		}
	}
}

// TestExecuteSourceSatisfiesInclusionCriteria: every inherited variant's
// source satisfies the reuse inclusion criteria (§IV-B) at every width.
func TestExecuteSourceSatisfiesInclusionCriteria(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, threads := range []int{1, 3} {
		rr, err := Execute(ix, vs, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rr.Results {
			if r.SourceID < 0 {
				continue
			}
			src := vs[r.SourceID].Params
			if !variant.CanReuse(r.Variant.Params, src) {
				t.Errorf("T=%d: variant %v reused %v violating inclusion criteria", threads, r.Variant.Params, src)
			}
		}
	}
}

// TestTimelinesAndMakespan: the per-worker spans do not overlap, cover
// every variant once, and TotalWork/T is a lower bound on the makespan.
func TestTimelinesAndMakespan(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan <= 0 || rr.TotalWork <= 0 {
		t.Fatalf("makespan %v, total work %v; want both positive", rr.Makespan, rr.TotalWork)
	}
	if lb := rr.TotalWork / time.Duration(rr.Threads); lb > rr.Makespan {
		t.Errorf("lower bound %v exceeds makespan %v", lb, rr.Makespan)
	}
	lines := make([][]VariantResult, rr.Threads)
	for _, r := range rr.Results {
		lines[r.Worker] = append(lines[r.Worker], r)
	}
	total := 0
	for _, line := range lines {
		total += len(line)
		slices.SortFunc(line, func(a, b VariantResult) int { return int(a.Start - b.Start) })
		for i := 1; i < len(line); i++ {
			if line[i].Start < line[i-1].End {
				t.Errorf("worker timeline overlaps: %v then %v", line[i-1].Variant, line[i].Variant)
			}
		}
	}
	if total != len(vs) {
		t.Errorf("timelines cover %d of %d variants", total, len(vs))
	}
}

// TestExecuteMetricsAccumulate: Options.Metrics sums every variant's
// counters, and the links after a chain's first add no ε-search, so the
// run's searches are its chain heads' alone.
func TestExecuteMetricsAccumulate(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.6}, []int{4, 8})
	var m metrics.Counters
	if _, err := Execute(ix, vs, Options{Threads: 2, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	var heads int64
	for _, eps := range []float64{0.4, 0.6} {
		var hm metrics.Counters
		if _, err := dbscan.RunParallel(ix, dbscan.Params{Eps: eps, MinPts: 8}, 1, &hm); err != nil {
			t.Fatal(err)
		}
		heads += hm.Snapshot().NeighborSearches
	}
	if got := m.Snapshot().NeighborSearches; got == 0 || got != heads {
		t.Errorf("metrics saw %d searches, want the chain heads' %d", got, heads)
	}
}

// TestMinPtsHeadClusteredFromScratch: each ε-chain starts at the ε's
// largest minpts, the SCHEDMINPTS head, and only that head runs from
// scratch.
func TestMinPtsHeadClusteredFromScratch(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rr.Results {
		if head := r.Variant.Params.MinPts == 16; r.FromScratch != head {
			t.Errorf("variant %v: from scratch %v, want %v", r.Variant.Params, r.FromScratch, head)
		}
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	// Already-canceled context: nothing starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteContext(ctx, ix, vs, Options{Threads: 2})
	if err == nil {
		t.Fatal("canceled context accepted")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// Background context: unchanged behavior.
	if _, err := ExecuteContext(context.Background(), ix, vs, Options{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	// Canceled inside a chain: ctx is checked between links, and the error
	// counts variants, not the chains the queue hands out.
	grid := dbscan.BuildIndex(ix.Pts, dbscan.IndexOptions{Kind: dbscan.IndexGrid})
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	_, err = ExecuteContext(ctx, grid, vs, Options{Threads: 1, Progress: func(obs.ProgressEvent) { cancel() }})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "after 1 of 9 variants") {
		t.Errorf("err = %v, want canceled after 1 of 9 variants", err)
	}
}

// --- Two-level scheduling (intra-variant donation) ---

func TestExecuteTwoLevelSingleVariant(t *testing.T) {
	// |V|=1 < T: the spare workers must donate to the lone variant, and the
	// result must be label-identical to the sequential execution.
	ix := testIndex(t)
	p := dbscan.Params{Eps: 0.8, MinPts: 4}
	want, err := dbscan.Run(ix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Execute(ix, variant.New([]dbscan.Params{p}), Options{
		Threads: 4, DonateIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rr.Results[0].Result
	if got.NumClusters != want.NumClusters {
		t.Fatalf("clusters %d vs %d", got.NumClusters, want.NumClusters)
	}
	for i := range got.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}

func TestExecuteTwoLevelTailSkew(t *testing.T) {
	// A skewed set: several cheap variants plus one expensive tail variant
	// (huge ε). With reuse disabled every execution is from scratch; idle
	// workers must flow into the tail without changing any result.
	ix := testIndex(t)
	ps := []dbscan.Params{
		{Eps: 0.2, MinPts: 8}, {Eps: 0.25, MinPts: 8}, {Eps: 0.3, MinPts: 8},
		{Eps: 6, MinPts: 4}, // tail: large ε dominates
	}
	baseline, err := Execute(ix, variant.New(ps), Options{Threads: 4, DisableReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	donated, err := Execute(ix, variant.New(ps), Options{
		Threads: 4, DisableReuse: true, DonateIdle: true, IntraWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range ps {
		a, b := baseline.Results[vi].Result, donated.Results[vi].Result
		if a.NumClusters != b.NumClusters {
			t.Fatalf("variant %d: clusters %d vs %d", vi, a.NumClusters, b.NumClusters)
		}
		for i := range a.Labels {
			if a.Labels[i] != b.Labels[i] {
				t.Fatalf("variant %d: label[%d] = %d vs %d", vi, i, b.Labels[i], a.Labels[i])
			}
		}
		if !donated.Results[vi].FromScratch {
			t.Errorf("variant %d: expected from-scratch", vi)
		}
	}
}

func TestExecuteTwoLevelWithReuse(t *testing.T) {
	// Chain heads go parallel and take donors, their replays follow on the
	// same path: every variant's bytes match the one-worker run.
	ix := testIndex(t)
	vs := variant.Product([]float64{0.5, 0.7, 0.9}, []int{4, 8})
	base, err := Execute(ix, vs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Execute(ix, vs, Options{
		Threads: 2, DonateIdle: true, IntraWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range vs {
		a, b := base.Results[vi].Result, two.Results[vi].Result
		if a.NumClusters != b.NumClusters || !slices.Equal(a.Labels, b.Labels) {
			t.Errorf("variant %d: labels differ with donation", vi)
		}
	}
}

func TestExecuteTwoLevelCancellation(t *testing.T) {
	ix := testIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecuteContext(ctx, ix, variant.New([]dbscan.Params{{Eps: 0.8, MinPts: 4}}),
		Options{Threads: 4, DonateIdle: true})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
}

func TestExecuteIntraWorkersWithoutDonation(t *testing.T) {
	// IntraWorkers > 1 alone (no donation) must also reproduce sequential
	// labels on from-scratch executions.
	ix := testIndex(t)
	p := dbscan.Params{Eps: 0.8, MinPts: 4}
	want, _ := dbscan.Run(ix, p, nil)
	rr, err := Execute(ix, variant.New([]dbscan.Params{p}), Options{
		Threads: 1, IntraWorkers: 4, DisableReuse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rr.Results[0].Result
	for i := range got.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
}

func TestExecuteTwoLevelManyVariantsFewThreads(t *testing.T) {
	// |V| > T with donation on: donors only appear at the tail; the run
	// must complete and every variant must be populated.
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.6, 0.8, 1.0, 1.2}, []int{4, 8})
	rr, err := Execute(ix, vs, Options{Threads: 3, DisableReuse: true, DonateIdle: true})
	if err != nil {
		t.Fatal(err)
	}
	for vi, r := range rr.Results {
		if r.Result == nil {
			t.Fatalf("variant %d has no result", vi)
		}
	}
}

// TestSpansShareMonotonicBasis pins the documented clock contract of
// VariantResult.Start/End: all offsets are time.Since measurements against
// the single run-start instant (Go's monotonic clock), so regardless of
// worker interleaving every span is non-negative, well-ordered, and nested
// within [0, Makespan].
func TestSpansShareMonotonicBasis(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.8, 1.2}, []int{4, 8, 12, 16})
	for _, threads := range []int{1, 4, 8} {
		rr, err := Execute(ix, vs, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rr.Results {
			if r.Start < 0 {
				t.Fatalf("T=%d v%d: Start %v < 0", threads, r.Variant.ID, r.Start)
			}
			if r.Duration() < 0 {
				t.Fatalf("T=%d v%d: Duration %v < 0 (End %v before Start %v)",
					threads, r.Variant.ID, r.Duration(), r.End, r.Start)
			}
			if r.End > rr.Makespan {
				t.Fatalf("T=%d v%d: End %v exceeds Makespan %v",
					threads, r.Variant.ID, r.End, rr.Makespan)
			}
		}
	}
}

// TestTracedRunMatchesUntraced is the equivalence property under tracing:
// attaching a tracer must not change a single label — and the tracer must
// come back with a complete account (one started + one done per variant,
// seed-selected events consistent with SourceID, per-variant work deltas
// summing to the run totals). The sweep runs ε-chains, whose bytes do not
// depend on the schedule, so byte-equality holds on both kinds at every
// thread count, and a link after a chain's first must report no ε-search
// in its work delta.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
		ix := dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16, Kind: kind})
		tracedRunMatchesUntraced(t, ix)
	}
}

func tracedRunMatchesUntraced(t *testing.T, ix *dbscan.Index) {
	vs := variant.Product([]float64{0.4, 0.8, 1.2}, []int{4, 8, 12, 16})
	for _, threads := range []int{1, 3} {
		plain, err := Execute(ix, vs, Options{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		var m metrics.Counters
		traced, err := Execute(ix, vs, Options{
			Threads: threads, Tracer: tr, Metrics: &m,
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := range plain.Results {
			a, b := plain.Results[id].Result, traced.Results[id].Result
			if a.NumClusters != b.NumClusters || !slices.Equal(a.Labels, b.Labels) {
				t.Fatalf("%v T=%d v%d: labels differ with tracing", ix.Kind, threads, id)
			}
		}

		started := map[int32]int{}
		done := map[int32]int{}
		var workSum metrics.Snapshot
		for _, e := range tr.Events() {
			switch e.Kind {
			case obs.KindStarted:
				started[e.Variant]++
			case obs.KindDone:
				done[e.Variant]++
				workSum = workSum.Add(e.Work)
				if want := int64(traced.Results[e.Variant].SourceID); e.Arg != want {
					t.Fatalf("T=%d v%d: done source %d, result SourceID %d", threads, e.Variant, e.Arg, want)
				}
				if e.F != traced.Results[e.Variant].FractionReused {
					t.Fatalf("T=%d v%d: done frac %v, stats %v",
						threads, e.Variant, e.F, traced.Results[e.Variant].FractionReused)
				}
				if e.Arg >= 0 && e.Work.NeighborSearches != 0 {
					t.Fatalf("T=%d v%d: inherited link ran %d ε-searches", threads, e.Variant, e.Work.NeighborSearches)
				}
			}
		}
		for _, v := range vs {
			id := int32(v.ID)
			if started[id] != 1 || done[id] != 1 {
				t.Fatalf("T=%d v%d: started %d done %d, want 1/1", threads, id, started[id], done[id])
			}
			// A chain's first link has the largest minpts of its ε.
			if inherited := v.Params.MinPts < 16; (traced.Results[id].SourceID >= 0) != inherited {
				t.Fatalf("T=%d %v: SourceID %d, inherited should be %v", threads, v.Params, traced.Results[id].SourceID, inherited)
			}
		}
		// Per-variant deltas must partition the run totals exactly.
		if total := m.Snapshot(); workSum != total {
			t.Fatalf("T=%d: per-variant work deltas sum to %+v, run totals %+v", threads, workSum, total)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("T=%d: %d events dropped on a small run", threads, tr.Dropped())
		}
	}
}

// TestTracedEventsNestWithinRun checks the trace-side clock contract: every
// event offset lies within [0, makespan] and each variant's phase events
// fall inside its started→done window.
func TestTracedEventsNestWithinRun(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.9}, []int{4, 10, 16})
	tr := obs.NewTracer()
	rr, err := Execute(ix, vs, Options{
		Threads: 4, Tracer: tr,
		DonateIdle: true, // exercise donor join/leave events too
	})
	if err != nil {
		t.Fatal(err)
	}
	window := map[int32][2]time.Duration{}
	for _, e := range tr.Events() {
		if e.At < 0 || e.At > rr.Makespan {
			t.Fatalf("event %v at %v outside [0, %v]", e.Kind, e.At, rr.Makespan)
		}
		switch e.Kind {
		case obs.KindStarted:
			window[e.Variant] = [2]time.Duration{e.At, -1}
		case obs.KindDone:
			w := window[e.Variant]
			w[1] = e.At
			window[e.Variant] = w
		}
	}
	for _, e := range tr.Events() {
		if e.Kind != obs.KindPhaseBegin && e.Kind != obs.KindPhaseEnd {
			continue
		}
		w, ok := window[e.Variant]
		if !ok || w[1] < 0 {
			t.Fatalf("phase event for v%d without a complete started/done window", e.Variant)
		}
		if e.At < w[0] || e.At > w[1] {
			t.Fatalf("v%d %v(%v) at %v outside its span [%v, %v]",
				e.Variant, e.Kind, obs.Phase(e.Arg), e.At, w[0], w[1])
		}
	}
}

// TestProgressCallback: one serial event per variant, Done strictly
// incrementing to |V|, running reuse mean consistent with the final result.
func TestProgressCallback(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.8}, []int{4, 8, 12})
	var events []obs.ProgressEvent
	rr, err := Execute(ix, vs, Options{
		Threads:  3,
		Progress: func(e obs.ProgressEvent) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(vs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(vs))
	}
	seen := map[int]bool{}
	for i, e := range events {
		if e.Done != i+1 {
			t.Fatalf("event %d has Done=%d, want %d (serial delivery broken)", i, e.Done, i+1)
		}
		if e.Total != len(vs) {
			t.Fatalf("event %d has Total=%d, want %d", i, e.Total, len(vs))
		}
		if seen[e.Variant] {
			t.Fatalf("variant %d reported twice", e.Variant)
		}
		seen[e.Variant] = true
		if e.Source != rr.Results[e.Variant].SourceID {
			t.Fatalf("v%d: progress source %d, result %d", e.Variant, e.Source, rr.Results[e.Variant].SourceID)
		}
	}
	var mean float64
	for _, r := range rr.Results {
		mean += r.FractionReused / float64(len(rr.Results))
	}
	last := events[len(events)-1]
	if got, want := last.MeanFractionReused, mean; math.Abs(got-want) > 1e-12 {
		t.Fatalf("final running mean %v, run mean %v", got, want)
	}
}

// TestExecuteTiledMatchesUntiled covers the reuse on/off axis of the
// tiled-exactness matrix: a variant schedule run with tile-level
// parallelism must produce byte-identical per-variant labels to the
// untiled schedule, whether executions cluster from scratch (reuse
// disabled — every run takes the tiled parallel path) or run as ε-chains
// (reuse on — each chain's first link tiles, the rest replay it). Both
// are schedule-independent, so the comparison is exact at every width.
func TestExecuteTiledMatchesUntiled(t *testing.T) {
	ix := dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1),
		dbscan.IndexOptions{R: 16, Kind: dbscan.IndexGrid})
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, disableReuse := range []bool{true, false} {
		base, err := Execute(ix, vs, Options{
			Threads:      1,
			DisableReuse: disableReuse, IntraWorkers: 2, Tiles: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tiles := range []int{4, 9, 16} {
			for _, threads := range []int{1, 4} {
				opt := Options{
					Threads:      threads,
					DisableReuse: disableReuse, IntraWorkers: 2, Tiles: tiles,
				}
				rr, err := Execute(ix, vs, opt)
				if err != nil {
					t.Fatal(err)
				}
				for vi, r := range rr.Results {
					want := base.Results[vi].Result
					if r.Result.NumClusters != want.NumClusters {
						t.Fatalf("reuse=%v tiles=%d T=%d variant %v: clusters %d vs %d",
							!disableReuse, tiles, threads, r.Variant,
							r.Result.NumClusters, want.NumClusters)
					}
					for i := range r.Result.Labels {
						if r.Result.Labels[i] != want.Labels[i] {
							t.Fatalf("reuse=%v tiles=%d T=%d variant %v: label[%d] = %d, want %d",
								!disableReuse, tiles, threads, r.Variant,
								i, r.Result.Labels[i], want.Labels[i])
						}
					}
				}
			}
		}
	}
}
