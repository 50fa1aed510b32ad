package paper

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
	"vdbscan/internal/persist"
	"vdbscan/internal/variant"
)

func testIndex(t *testing.T) *dbscan.Index {
	t.Helper()
	return dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
}

// testGridIndex is testIndex's point set on the default grid kind.
func testGridIndex() *dbscan.Index {
	return dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16})
}

func TestStrategyStrings(t *testing.T) {
	if SchedGreedy.String() != "SCHEDGREEDY" || SchedMinPts.String() != "SCHEDMINPTS" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should stringify")
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

// TestExecuteReuseHappens runs the paper's reuse on both kinds; a grid
// index builds the T_high its cluster-MBB sweeps need on the first one.
func TestExecuteReuseHappens(t *testing.T) {
	for _, ix := range []*dbscan.Index{testIndex(t), testGridIndex()} {
		vs := variant.Product([]float64{0.4, 0.6, 0.8}, []int{4, 8, 16})
		rr, err := Execute(ix, vs, Options{Threads: 1, Strategy: SchedGreedy, Scheme: ClusDensity})
		if err != nil {
			t.Fatal(err)
		}
		// With T=1 only the first variant must be from scratch; the
		// canonical first is (0.4,16), which produces clusters on this
		// dataset, and every later variant can reuse a completed one.
		scratch := 0
		for _, r := range rr.Results {
			if r.Stats.FromScratch {
				scratch++
			}
		}
		if scratch != 1 {
			t.Errorf("%v: from-scratch count = %d, want 1 (T=1, chainable set)", ix.Kind, scratch)
		}
		if rr.MeanFractionReused() <= 0 {
			t.Errorf("%v: mean fraction reused should be positive", ix.Kind)
		}
	}
}

func TestExecuteSourceSatisfiesInclusionCriteria(t *testing.T) {
	ix := testIndex(t)
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, strategy := range Strategies {
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
	// With T=1, everything after the 3 head variants can
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

// TestExecuteMatchesScratchPerVariant is the paper's quality contract and
// the assertion every schedule agrees on. At one thread the run is
// deterministic, and every variant stays within DBSCAN's border ambiguity
// of dbscan.Run. Above one thread each variant reuses whichever source
// completed first, and two valid sources differ in cluster numbering and
// border attachment. What they agree on is the cluster count and the exact
// noise set, so that is what a T > 1 run is held to against the T = 1 run.
func TestExecuteMatchesScratchPerVariant(t *testing.T) {
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	for _, ix := range []*dbscan.Index{testIndex(t), testGridIndex()} {
		for _, strategy := range Strategies {
			one, err := Execute(ix, vs, Options{Threads: 1, Strategy: strategy, Scheme: ClusDensity})
			if err != nil {
				t.Fatal(err)
			}
			again, err := Execute(ix, vs, Options{Threads: 1, Strategy: strategy, Scheme: ClusDensity})
			if err != nil {
				t.Fatal(err)
			}
			many, err := Execute(ix, vs, Options{Threads: 4, Strategy: strategy, Scheme: ClusDensity})
			if err != nil {
				t.Fatal(err)
			}
			for id, r := range one.Results {
				tag := fmt.Sprintf("%v %v %v", ix.Kind, strategy, r.Variant)
				want, _ := dbscan.Run(ix, r.Variant.Params, nil)
				if d := cluster.DisagreementCount(r.Result, want); d > ix.Len()/200 {
					t.Errorf("%s: disagreements = %d", tag, d)
				}
				if !slices.Equal(again.Results[id].Result.Labels, r.Result.Labels) {
					t.Errorf("%s: two one-thread runs differ", tag)
				}
				m := many.Results[id].Result
				if m.NumClusters != r.Result.NumClusters {
					t.Errorf("%s: T=4 clusters %d, T=1 %d", tag, m.NumClusters, r.Result.NumClusters)
				}
				for i := range m.Labels {
					if (m.Labels[i] == cluster.Noise) != (r.Result.Labels[i] == cluster.Noise) {
						t.Fatalf("%s: point %d noise at T=4 is %v", tag, i, m.Labels[i] == cluster.Noise)
					}
				}
			}
		}
	}
}

// TestSnapshotReloadMatchesFresh runs the paper's reuse on an index loaded
// back from a snapshot, whose T_high is rebuilt lazily on the first
// cluster sweep: at one thread its labels are the fresh index's bytes, on
// either kind.
func TestSnapshotReloadMatchesFresh(t *testing.T) {
	vs := variant.Product([]float64{0.4, 0.6, 0.8}, []int{4, 8, 16})
	for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
		fresh := dbscan.BuildIndex(blobs(3, 200, 100, 25, 0.6, 1), dbscan.IndexOptions{R: 16, Kind: kind})
		want, err := Execute(fresh, vs, Options{Strategy: SchedGreedy, Scheme: ClusDensity})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := fresh.FrozenParts()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snapshot")
		if err := persist.Save(path, parts, 1); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := persist.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Execute(loaded, vs, Options{Strategy: SchedGreedy, Scheme: ClusDensity})
		if err != nil {
			t.Fatal(err)
		}
		for id := range vs {
			w, g := want.Results[id], got.Results[id]
			if g.Stats != w.Stats || g.SourceID != w.SourceID || !slices.Equal(g.Result.Labels, w.Result.Labels) {
				t.Fatalf("%v %v: reloaded run differs from the fresh one", kind, vs[id].Params)
			}
		}
	}
}
