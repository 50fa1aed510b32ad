package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/reuse"
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
	return dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16})
}

func TestStrategyStrings(t *testing.T) {
	if SchedEpsChain.String() != "EPSCHAIN" || SchedGreedy.String() != "SCHEDGREEDY" || SchedMinPts.String() != "SCHEDMINPTS" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should stringify")
	}
	for _, c := range []struct {
		in   string
		want Strategy
	}{{"EPSCHAIN", SchedEpsChain}, {"chain", SchedEpsChain}, {"SCHEDGREEDY", SchedGreedy}, {"greedy", SchedGreedy}, {"SCHEDMINPTS", SchedMinPts}, {"minpts", SchedMinPts}} {
		got, err := Parse(c.in)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse should reject unknown")
	}
}

func TestOrderGreedyIsCanonical(t *testing.T) {
	vs := variant.Product([]float64{0.4, 0.2}, []int{4, 8})
	q := order(vs, SchedGreedy)
	want := []dbscan.Params{{Eps: 0.2, MinPts: 8}, {Eps: 0.2, MinPts: 4}, {Eps: 0.4, MinPts: 8}, {Eps: 0.4, MinPts: 4}}
	for i := range want {
		if q[i].Params != want[i] {
			t.Fatalf("greedy order[%d] = %v, want %v", i, q[i].Params, want[i])
		}
	}
}

func TestOrderMinPtsPrioritizesMaxMinptsPerEps(t *testing.T) {
	// Paper Figure 3c: (0.2,32),(0.4,32),(0.6,32) first.
	vs := variant.Product([]float64{0.2, 0.4, 0.6}, []int{32, 28, 24, 20})
	q := order(vs, SchedMinPts)
	wantHead := []dbscan.Params{{Eps: 0.2, MinPts: 32}, {Eps: 0.4, MinPts: 32}, {Eps: 0.6, MinPts: 32}}
	for i := range wantHead {
		if q[i].Params != wantHead[i] {
			t.Fatalf("minpts head[%d] = %v, want %v", i, q[i].Params, wantHead[i])
		}
	}
	if len(q) != len(vs) {
		t.Fatalf("order dropped variants: %d of %d", len(q), len(vs))
	}
	// Figure 3c's full schedule: after the head, remaining canonical order.
	wantRest := []dbscan.Params{
		{Eps: 0.2, MinPts: 28}, {Eps: 0.2, MinPts: 24}, {Eps: 0.2, MinPts: 20},
		{Eps: 0.4, MinPts: 28}, {Eps: 0.4, MinPts: 24}, {Eps: 0.4, MinPts: 20},
		{Eps: 0.6, MinPts: 28}, {Eps: 0.6, MinPts: 24}, {Eps: 0.6, MinPts: 20},
	}
	for i := range wantRest {
		if q[3+i].Params != wantRest[i] {
			t.Fatalf("minpts rest[%d] = %v, want %v", i, q[3+i].Params, wantRest[i])
		}
	}
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
	if !rr.Results[0].Stats.FromScratch {
		t.Error("single variant must be from scratch")
	}
	if rr.Results[0].SourceID != -1 {
		t.Error("single variant has no source")
	}
}

func TestExecuteMatchesScratchPerVariant(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, strategy := range AllStrategies {
		for _, threads := range []int{1, 4} {
			rr, err := Execute(ix, vs, Options{Threads: threads, Strategy: strategy, Scheme: reuse.ClusDensity})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rr.Results {
				want, _ := dbscan.Run(ix, r.Variant.Params, nil)
				if d := cluster.DisagreementCount(r.Result, want); d > ix.Len()/200 {
					t.Errorf("%v T=%d variant %v: disagreements = %d",
						strategy, threads, r.Variant, d)
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

func TestExecuteReuseHappens(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.6, 0.8}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 1, Strategy: SchedGreedy, Scheme: reuse.ClusDensity})
	if err != nil {
		t.Fatal(err)
	}
	// With T=1 only the first variant must be from scratch; the canonical
	// first is (0.4,16), which produces clusters on this dataset, and every
	// later variant can reuse a completed one.
	scratch := 0
	for _, r := range rr.Results {
		if r.Stats.FromScratch {
			scratch++
		}
	}
	if scratch != 1 {
		t.Errorf("from-scratch count = %d, want 1 (T=1, chainable set)", scratch)
	}
	if rr.MeanFractionReused() <= 0 {
		t.Error("mean fraction reused should be positive")
	}
}

func TestExecuteSourceSatisfiesInclusionCriteria(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, strategy := range AllStrategies {
		rr, err := Execute(ix, vs, Options{Threads: 3, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rr.Results {
			if r.SourceID < 0 {
				continue
			}
			src := vs[r.SourceID].Params
			if !variant.CanReuse(r.Variant.Params, src) {
				t.Errorf("%v: variant %v reused %v violating inclusion criteria",
					strategy, r.Variant.Params, src)
			}
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
	if got := rr.FractionFromScratch(); got != 1 {
		t.Errorf("DisableReuse fraction from scratch = %g, want 1", got)
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
	rr, err := Execute(ix, variant.New(params), Options{Threads: 4, Scheme: reuse.ClusDensity})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dbscan.Run(ix, params[0], nil)
	for _, r := range rr.Results {
		if d := cluster.DisagreementCount(r.Result, want); d > ix.Len()/200 {
			t.Errorf("identical variant %d: disagreements = %d", r.Variant.ID, d)
		}
	}
}

func TestTimelinesAndMakespan(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan <= 0 {
		t.Error("makespan should be positive")
	}
	if rr.TotalWork <= 0 {
		t.Error("total work should be positive")
	}
	if rr.LowerBound() > rr.Makespan {
		t.Errorf("lower bound %v exceeds makespan %v", rr.LowerBound(), rr.Makespan)
	}
	if rr.SlowdownOverLowerBound() < 0 {
		t.Errorf("slowdown = %g < 0", rr.SlowdownOverLowerBound())
	}
	lines := rr.WorkerTimelines()
	if len(lines) != 3 {
		t.Fatalf("timelines = %d", len(lines))
	}
	total := 0
	for _, line := range lines {
		total += len(line)
		// Within one worker, executions must not overlap.
		for i := 1; i < len(line); i++ {
			if line[i].Start < line[i-1].End {
				t.Errorf("worker timeline overlaps: %v then %v", line[i-1], line[i])
			}
		}
	}
	if total != len(vs) {
		t.Errorf("timelines cover %d of %d variants", total, len(vs))
	}
}

func TestExecuteMetricsAccumulate(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.6}, []int{4, 8})
	var m metrics.Counters
	if _, err := Execute(ix, vs, Options{Threads: 2, Strategy: SchedGreedy, Metrics: &m}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.NeighborSearches == 0 {
		t.Error("metrics saw no searches")
	}
	if s.PointsReused == 0 {
		t.Error("metrics saw no reuse")
	}
}

// TestDefaultRunsEpsChainsOnRTree pins the default strategy on the R-tree
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

// TestSequentialChainHeads pins the one-goroutine path on the R-tree kind:
// at T=1 without intra-variant workers, every chain's first link — a lone
// variant's included — is sequential DBSCAN, traced as one scratch phase
// with dbscan.Run's counters, and the links after it replay (mark, label,
// border) at no ε-search.
func TestSequentialChainHeads(t *testing.T) {
	ix := testIndex(t)
	ps := []dbscan.Params{{Eps: 0.5, MinPts: 8}, {Eps: 0.5, MinPts: 4}, {Eps: 0.3, MinPts: 4}}
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
		want, err := dbscan.Run(ix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rr.Results[id].Result; !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("%v: labels differ from dbscan.Run", p)
		}
		v := int32(id)
		if id == 1 {
			if !slices.Equal(phases[v], replay) || work[v].NeighborSearches != 0 {
				t.Errorf("%v: phases %v, %d searches; want %v at none", p, phases[v], work[v].NeighborSearches, replay)
			}
			continue
		}
		var m metrics.Counters
		if _, err := dbscan.Run(ix, p, &m); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(phases[v], []obs.Phase{obs.PhaseScratch}) || work[v] != m.Snapshot() {
			t.Errorf("%v: phases %v, work %+v; want [scratch] and dbscan.Run's %+v", p, phases[v], work[v], m.Snapshot())
		}
	}
}

func TestMinPtsHeadClusteredFromScratch(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 1, Strategy: SchedMinPts})
	if err != nil {
		t.Fatal(err)
	}
	// The head variants (max minpts per eps) must be from scratch.
	for _, r := range rr.Results {
		if r.Variant.Params.MinPts == 16 && !r.Stats.FromScratch {
			t.Errorf("head variant %v was not clustered from scratch", r.Variant.Params)
		}
	}
	// With T=1, everything after the 3 head variants can reuse.
	if got := rr.FractionFromScratch(); got != 3.0/9.0 {
		t.Errorf("fraction from scratch = %g, want 1/3", got)
	}
}

func TestFractionFromScratchLowerBoundFormula(t *testing.T) {
	// Paper §IV-D: at least (1-f) = T/|V| of variants are from scratch...
	// with T=1 and a fully chainable set exactly 1/|V|.
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 1, Strategy: SchedGreedy})
	if err != nil {
		t.Fatal(err)
	}
	f := float64(len(vs)-1) / float64(len(vs))
	if got := 1 - rr.FractionFromScratch(); got > f {
		t.Errorf("reused fraction %g exceeds max %g", got, f)
	}
}

func TestSchedTreeOrderAndSources(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.4, 0.6, 0.8}, []int{4, 8, 16})
	rr, err := Execute(ix, vs, Options{Threads: 1, Strategy: SchedTree, Scheme: reuse.ClusDensity})
	if err != nil {
		t.Fatal(err)
	}
	tree := variant.BuildDepTree(vs)
	parentOf := map[int]int{}
	for i, p := range tree.Parent {
		if p < 0 {
			parentOf[tree.Variants[i].ID] = -1
		} else {
			parentOf[tree.Variants[i].ID] = tree.Variants[p].ID
		}
	}
	// With T=1 and DFS order, every variant with a tree parent reuses
	// exactly that parent (the parent completed earlier by construction)
	// unless the parent produced no clusters.
	for _, r := range rr.Results {
		want := parentOf[r.Variant.ID]
		if want == -1 {
			continue
		}
		src := rr.Results[want]
		if src.Result.NumClusters == 0 {
			continue // from-scratch fallback is correct here
		}
		if r.SourceID != want {
			t.Errorf("variant %v reused %d, tree parent is %d", r.Variant, r.SourceID, want)
		}
	}
	// Correctness unchanged.
	for _, r := range rr.Results {
		wantRes, _ := dbscan.Run(ix, r.Variant.Params, nil)
		if d := cluster.DisagreementCount(r.Result, wantRes); d > ix.Len()/200 {
			t.Errorf("SCHEDTREE variant %v: disagreements = %d", r.Variant, d)
		}
	}
}

func TestSchedTreeParseAndString(t *testing.T) {
	if SchedTree.String() != "SCHEDTREE" {
		t.Error("SchedTree name")
	}
	got, err := Parse("tree")
	if err != nil || got != SchedTree {
		t.Errorf("Parse(tree) = %v, %v", got, err)
	}
	if len(AllStrategies) != 3 {
		t.Errorf("AllStrategies = %v", AllStrategies)
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
		if !donated.Results[vi].Stats.FromScratch {
			t.Errorf("variant %d: expected from-scratch", vi)
		}
	}
}

func TestExecuteTwoLevelWithReuse(t *testing.T) {
	// Reuse-based executions stay on the sequential EXPANDCLUSTER path;
	// only from-scratch ones go parallel. Per-variant quality against the
	// non-donated run must be unchanged.
	ix := testIndex(t)
	vs := variant.Product([]float64{0.5, 0.7, 0.9}, []int{4, 8})
	base, err := Execute(ix, vs, Options{Threads: 2, Scheme: reuse.ClusDensity})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Execute(ix, vs, Options{
		Threads: 2, Scheme: reuse.ClusDensity, DonateIdle: true, IntraWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range vs {
		a, b := base.Results[vi].Result, two.Results[vi].Result
		// Reuse order can differ between runs (online schedule), so compare
		// cluster structure, not exact labels.
		if a.NumClusters != b.NumClusters {
			t.Errorf("variant %d: clusters %d vs %d", vi, a.NumClusters, b.NumClusters)
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
		rr, err := Execute(ix, vs, Options{Threads: threads, Scheme: reuse.ClusDensity})
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
// summing to the run totals).
//
// Under the default SchedEpsChain byte-equality holds on both kinds at every
// thread count: the sweep runs ε-chains, whose bytes do not depend on the
// schedule, and a link after a chain's first must report no ε-search in its
// work delta. Under an explicit paper strategy (SchedGreedy here) it is
// asserted at Threads == 1 only. At Threads > 1 the online scheduler reuses
// the closest *completed* variant, completion order is timing, and two
// valid sources differ in cluster numbering and border attachment — with or
// without a tracer. There the test asserts what every valid source agrees
// on: the cluster count and the exact noise set.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
		ix := dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16, Kind: kind})
		for _, strategy := range []Strategy{SchedEpsChain, SchedGreedy} {
			tracedRunMatchesUntraced(t, ix, strategy)
		}
	}
}

func tracedRunMatchesUntraced(t *testing.T, ix *dbscan.Index, strategy Strategy) {
	vs := variant.Product([]float64{0.4, 0.8, 1.2}, []int{4, 8, 12, 16})
	chain := strategy == SchedEpsChain
	for _, threads := range []int{1, 3} {
		plain, err := Execute(ix, vs, Options{Threads: threads, Strategy: strategy, Scheme: reuse.ClusDensity})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		var m metrics.Counters
		traced, err := Execute(ix, vs, Options{
			Threads: threads, Strategy: strategy, Scheme: reuse.ClusDensity, Tracer: tr, Metrics: &m,
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := range plain.Results {
			a, b := plain.Results[id].Result, traced.Results[id].Result
			if a.NumClusters != b.NumClusters {
				t.Fatalf("%v %v T=%d v%d: clusters %d vs %d", ix.Kind, strategy, threads, id, b.NumClusters, a.NumClusters)
			}
			for i := range a.Labels {
				same := a.Labels[i] == b.Labels[i]
				if !chain && threads > 1 {
					same = (a.Labels[i] == cluster.Noise) == (b.Labels[i] == cluster.Noise)
				}
				if !same {
					t.Fatalf("%v %v T=%d v%d: label[%d] = %d with tracing, %d without",
						ix.Kind, strategy, threads, id, i, b.Labels[i], a.Labels[i])
				}
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
				if e.F != traced.Results[e.Variant].Stats.FractionReused {
					t.Fatalf("T=%d v%d: done frac %v, stats %v",
						threads, e.Variant, e.F, traced.Results[e.Variant].Stats.FractionReused)
				}
				if chain && e.Arg >= 0 && e.Work.NeighborSearches != 0 {
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
			if inherited := v.Params.MinPts < 16; chain && (traced.Results[id].SourceID >= 0) != inherited {
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
		Threads: 4, Scheme: reuse.ClusDensity, Tracer: tr,
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
		Threads: 3, Scheme: reuse.ClusDensity,
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
	last := events[len(events)-1]
	if got, want := last.MeanFractionReused, rr.MeanFractionReused(); math.Abs(got-want) > 1e-12 {
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
			Threads: 1, Scheme: reuse.ClusDensity,
			DisableReuse: disableReuse, IntraWorkers: 2, Tiles: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tiles := range []int{4, 9, 16} {
			for _, threads := range []int{1, 4} {
				opt := Options{
					Threads: threads, Scheme: reuse.ClusDensity,
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
