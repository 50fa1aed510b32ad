// Benchmarks regenerating each table and figure of the paper's evaluation
// (§V), plus ablations of the design choices called out in DESIGN.md.
//
// Dataset sizes are scaled down so `go test -bench=.` completes in minutes
// on a laptop; the harness binary (cmd/experiments) runs the same
// experiments at configurable scale with full reporting. The benches
// report, beyond ns/op, the work metrics that carry each figure's shape:
// ε-searches, candidates filtered, and points reused per operation.
package vdbscan

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"vdbscan/internal/approx"
	"vdbscan/internal/data"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/incremental"
	"vdbscan/internal/kdist"
	"vdbscan/internal/metrics"
	"vdbscan/internal/paper"
	"vdbscan/internal/sched"
	"vdbscan/internal/stdbscan"
	"vdbscan/internal/tec"
	"vdbscan/internal/track"
	"vdbscan/internal/variant"
)

// fixtures are shared across benchmarks and built once.
var (
	fixOnce  sync.Once
	fixSynth *data.Dataset // cF-style, 20k points, 15% noise
	fixTEC   *data.Dataset // SW1-style thresholded TEC, 20k points
	fixIdx   map[int]*dbscan.Index
	fixTECIx *dbscan.Index
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		var err error
		fixSynth, err = data.Generate(data.SynthConfig{
			Class: data.ClassCF, N: 20_000, NoiseFrac: 0.15, Seed: 0xBE7C4,
		})
		if err != nil {
			panic(err)
		}
		fixTEC, err = tec.Simulate(tec.Config{N: 20_000, Seed: 0x51, Name: "SW1-bench"})
		if err != nil {
			panic(err)
		}
		fixIdx = map[int]*dbscan.Index{}
		for _, r := range []int{1, 16, 70, 100, 256} {
			fixIdx[r] = dbscan.BuildIndex(fixSynth.Points, dbscan.IndexOptions{R: r, Kind: dbscan.IndexRTree})
		}
		fixTECIx = dbscan.BuildIndex(fixTEC.Points, dbscan.IndexOptions{R: 70, Kind: dbscan.IndexRTree})
	})
}

// synthParams are meaningful on the 20k cF fixture (2 dense blobs + noise
// over the 360x180 region).
var synthParams = dbscan.Params{Eps: 3, MinPts: 4}

// tecParams are meaningful on the 20k TEC fixture.
var tecParams = dbscan.Params{Eps: 2, MinPts: 4}

func reportWork(b *testing.B, s metrics.Snapshot, n int) {
	b.ReportMetric(float64(s.NeighborSearches)/float64(n), "searches/op")
	b.ReportMetric(float64(s.CandidatesExamined)/float64(n), "candidates/op")
	b.ReportMetric(float64(s.PointsReused)/float64(n), "reusedPts/op")
}

// BenchmarkTable1DatasetGen regenerates Table I's dataset battery (scaled).
func BenchmarkTable1DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := data.Table1Synthetic(0.001, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2ClusterCounts measures one S1 row: a single DBSCAN run at
// the Table II parameters on the synthetic fixture.
func BenchmarkTable2ClusterCounts(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := dbscan.Run(fixIdx[70], synthParams, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Indexing is scenario S1: 8 identical variants clustered
// concurrently (no reuse) across leaf occupancies r, against the r=1
// sequential reference measured by the r=1/threads=1 case.
func BenchmarkFig4Indexing(b *testing.B) {
	fixtures(b)
	vs := variant.New(func() []dbscan.Params {
		ps := make([]dbscan.Params, 8)
		for i := range ps {
			ps[i] = synthParams
		}
		return ps
	}())
	for _, cfg := range []struct {
		name    string
		r       int
		threads int
	}{
		{"reference_r1_T1", 1, 1},
		{"r1_T8", 1, 8},
		{"r16_T8", 16, 8},
		{"r70_T8", 70, 8},
		{"r100_T8", 100, 8},
		{"r256_T8", 256, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var m metrics.Counters
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := paper.Execute(fixIdx[cfg.r], vs, paper.Options{
					Threads: cfg.threads, DisableReuse: true, Metrics: &m,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportWork(b, m.Snapshot(), b.N)
		})
	}
}

// s2BenchVariants is a scaled Table III set: A x B with |V| = 12.
func s2BenchVariants() []variant.Variant {
	return variant.Product([]float64{1.5, 2, 2.5}, []int{4, 8, 16, 32})
}

// BenchmarkFig5ReuseSchemes is scenario S2 on the TEC fixture with T=1:
// the three cluster-reuse schemes against the from-scratch baseline.
func BenchmarkFig5ReuseSchemes(b *testing.B) {
	fixtures(b)
	vs := s2BenchVariants()
	b.Run("baseline_noreuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := paper.Execute(fixTECIx, vs, paper.Options{Threads: 1, DisableReuse: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, scheme := range paper.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			var m metrics.Counters
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := paper.Execute(fixTECIx, vs, paper.Options{
					Threads: 1, Strategy: paper.SchedGreedy, Scheme: scheme, Metrics: &m,
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportWork(b, m.Snapshot(), b.N)
		})
	}
}

// BenchmarkFig6ResponseVsReuse measures the per-variant measurement pass
// that produces Figure 6's scatter (response time and reuse fraction per
// variant under CLUSDENSITY).
func BenchmarkFig6ResponseVsReuse(b *testing.B) {
	fixtures(b)
	vs := s2BenchVariants()
	for i := 0; i < b.N; i++ {
		rr, err := paper.Execute(fixTECIx, vs, paper.Options{Threads: 1, Strategy: paper.SchedGreedy, Scheme: paper.ClusDensity})
		if err != nil {
			b.Fatal(err)
		}
		var sink float64
		for _, r := range rr.Results {
			sink += r.Duration().Seconds() + r.Stats.FractionReused
		}
		_ = sink
	}
}

// BenchmarkFig7aSpeedup compares the reference (sequential, r=1, no reuse)
// against VariantDBSCAN (T=1, r=70, CLUSDENSITY) on the synthetic fixture —
// the Figure 7a quantity.
func BenchmarkFig7aSpeedup(b *testing.B) {
	fixtures(b)
	vs := s2BenchVariants()
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range vs {
				if _, err := dbscan.Run(fixIdx[1], v.Params, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("variantdbscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := paper.Execute(fixIdx[70], vs, paper.Options{
				Threads: 1, Strategy: paper.SchedGreedy, Scheme: paper.ClusDensity,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7bReuseFraction isolates the bookkeeping that yields Figure
// 7b's mean fraction of points reused.
func BenchmarkFig7bReuseFraction(b *testing.B) {
	fixtures(b)
	vs := s2BenchVariants()
	for i := 0; i < b.N; i++ {
		rr, err := paper.Execute(fixIdx[70], vs, paper.Options{Threads: 1, Strategy: paper.SchedGreedy, Scheme: paper.ClusDensity})
		if err != nil {
			b.Fatal(err)
		}
		if rr.MeanFractionReused() < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkFig7cQuality measures the per-point Jaccard quality scoring of a
// VariantDBSCAN result against plain DBSCAN (Figure 7c).
func BenchmarkFig7cQuality(b *testing.B) {
	fixtures(b)
	ref, err := dbscan.Run(fixTECIx, tecParams, nil)
	if err != nil {
		b.Fatal(err)
	}
	rr, err := paper.Execute(fixTECIx, variant.New([]dbscan.Params{
		{Eps: tecParams.Eps * 0.8, MinPts: 8}, tecParams,
	}), paper.Options{Threads: 1, Strategy: paper.SchedGreedy, Scheme: paper.ClusDensity})
	if err != nil {
		b.Fatal(err)
	}
	cand := rr.Results[1].Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quality(ref, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4VariantSets measures building the S3 variant sets.
func BenchmarkTable4VariantSets(b *testing.B) {
	var B []int
	for mp := 10; mp <= 100; mp += 5 {
		B = append(B, mp)
	}
	for i := 0; i < b.N; i++ {
		if got := len(variant.Product([]float64{0.2, 0.3, 0.4}, B)); got != 57 {
			b.Fatal("wrong |V|")
		}
	}
}

// BenchmarkFig8Combined is scenario S3: the four scheduling/reuse
// combinations with T=8 on the TEC fixture (|V|=12 scaled set).
func BenchmarkFig8Combined(b *testing.B) {
	fixtures(b)
	vs := s2BenchVariants()
	for _, combo := range []struct {
		scheme   paper.Scheme
		strategy paper.Strategy
	}{
		{paper.ClusDensity, paper.SchedGreedy},
		{paper.ClusDensity, paper.SchedMinPts},
		{paper.ClusPtsSquared, paper.SchedGreedy},
		{paper.ClusPtsSquared, paper.SchedMinPts},
	} {
		b.Run(combo.scheme.String()+"_"+combo.strategy.String(), func(b *testing.B) {
			var m metrics.Counters
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := paper.Execute(fixTECIx, vs, paper.Options{
					Threads: 8, Scheme: combo.scheme, Strategy: combo.strategy, Metrics: &m,
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportWork(b, m.Snapshot(), b.N)
		})
	}
}

// BenchmarkFig9Makespan measures the makespan bookkeeping of the two
// scheduling heuristics (Figure 9) and reports slowdown over the no-idle
// lower bound.
func BenchmarkFig9Makespan(b *testing.B) {
	fixtures(b)
	vs := s2BenchVariants()
	for _, strategy := range paper.Strategies {
		b.Run(strategy.String(), func(b *testing.B) {
			var slow float64
			for i := 0; i < b.N; i++ {
				rr, err := paper.Execute(fixTECIx, vs, paper.Options{
					Threads: 8, Scheme: paper.ClusDensity, Strategy: strategy,
				})
				if err != nil {
					b.Fatal(err)
				}
				slow += rr.SlowdownOverLowerBound()
			}
			b.ReportMetric(slow/float64(b.N)*100, "slowdown%")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationUnionFind compares the disjoint-set formulation
// (Patwary et al.; RunParallel at one worker) with the expansion-based
// implementation.
func BenchmarkAblationUnionFind(b *testing.B) {
	fixtures(b)
	b.Run("expansion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.Run(fixTECIx, tecParams, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unionfind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.RunParallel(fixTECIx, tecParams, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNeighborSearch isolates Algorithm 2 at the paper's r values.
func BenchmarkNeighborSearch(b *testing.B) {
	fixtures(b)
	for _, r := range []int{1, 70, 256} {
		ix := fixIdx[r]
		b.Run(map[int]string{1: "r1", 70: "r70", 256: "r256"}[r], func(b *testing.B) {
			var buf []int32
			for i := 0; i < b.N; i++ {
				p := ix.Pts[i%len(ix.Pts)]
				buf = ix.NeighborSearch(p, synthParams.Eps, nil, buf[:0])
			}
		})
	}
}

// BenchmarkAblationIntraVsVariantParallel contrasts the two parallelism
// granularities (§III vs §IV): parallelizing the range queries inside one
// DBSCAN run (master/worker, Arlia & Coppola) versus running whole variants
// concurrently (VariantDBSCAN's pool of ε-chains). The workload is the same
// 4-variant eps sweep either way.
func BenchmarkAblationIntraVsVariantParallel(b *testing.B) {
	fixtures(b)
	ps := []dbscan.Params{
		{Eps: 1, MinPts: 4}, {Eps: 1.5, MinPts: 4}, {Eps: 2, MinPts: 4}, {Eps: 2.5, MinPts: 4},
	}
	b.Run("intra-variant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range ps {
				if _, err := dbscan.RunParallel(fixTECIx, p, 8, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("variant-level", func(b *testing.B) {
		vs := variant.New(ps)
		for i := 0; i < b.N; i++ {
			if _, err := sched.Execute(fixTECIx, vs, sched.Options{Threads: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIncrementalVsBatch contrasts maintaining a clustering
// under streaming inserts (IncrementalDBSCAN) with re-clustering from
// scratch after every batch — the monitoring-loop trade-off.
func BenchmarkAblationIncrementalVsBatch(b *testing.B) {
	fixtures(b)
	stream := fixTEC.Points[:6000]
	p := dbscan.Params{Eps: 1.5, MinPts: 4}
	const batch = 250
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := incremental.New(p, nil)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(stream); off += batch {
				c.InsertBatch(stream[off : off+batch])
				if c.Labels().Len() == 0 {
					b.Fatal("no labels")
				}
			}
		}
	})
	b.Run("recluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for off := batch; off <= len(stream); off += batch {
				ix := dbscan.BuildIndex(stream[:off], dbscan.IndexOptions{R: 70, Kind: dbscan.IndexRTree})
				if _, err := dbscan.Run(ix, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkKDistSuggest measures the sorted 4-dist heuristic (ε selection).
func BenchmarkKDistSuggest(b *testing.B) {
	fixtures(b)
	small := dbscan.BuildIndex(fixSynth.Points[:5000], dbscan.IndexOptions{R: 70, Kind: dbscan.IndexRTree})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kdist.SuggestEps(small, kdist.DefaultMinPts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTDBSCAN measures spatiotemporal clustering over stacked frames.
func BenchmarkSTDBSCAN(b *testing.B) {
	fixtures(b)
	pts := make([]stdbscan.Point, 0, 10000)
	for i, p := range fixTEC.Points[:10000] {
		pts = append(pts, stdbscan.Point{X: p.X, Y: p.Y, T: float64(i % 5)})
	}
	ix := stdbscan.BuildIndex(pts, 70)
	p := stdbscan.Params{Eps1: 2, Eps2: 1.5, MinPts: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stdbscan.Run(ix, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracking measures frame-to-frame feature linking.
func BenchmarkTracking(b *testing.B) {
	fixtures(b)
	ix := fixTECIx
	res, err := dbscan.Run(ix, tecParams, nil)
	if err != nil {
		b.Fatal(err)
	}
	features := track.Extract(ix.Pts, res, 0, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := track.NewTracker(5, 1)
		for f := 0; f < 10; f++ {
			shifted := make([]track.Feature, len(features))
			copy(shifted, features)
			for j := range shifted {
				shifted[j].Time = float64(f)
				shifted[j].Centroid.X += float64(f)
			}
			tr.Advance(shifted)
		}
		if len(tr.All()) == 0 {
			b.Fatal("no tracks")
		}
	}
}

// BenchmarkIndexShootout runs one DBSCAN variant over every neighbor-search
// substrate in the repository: brute force, the uniform cell grid, and the
// paper's packed R-tree (build + run, since the structures have very
// different construction costs).
func BenchmarkIndexShootout(b *testing.B) {
	fixtures(b)
	pts := fixTEC.Points[:10000]
	p := dbscan.Params{Eps: 2, MinPts: 4}
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.RunBruteForce(pts, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 70, Kind: dbscan.IndexGrid})
			if _, err := dbscan.Run(ix, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rtree-r70", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 70, Kind: dbscan.IndexRTree})
			if _, err := dbscan.Run(ix, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationApproxDBSCAN measures the ρ-approximation knob: exact
// DBSCAN against rho-approximate runs at loosening slack.
func BenchmarkAblationApproxDBSCAN(b *testing.B) {
	fixtures(b)
	pts := fixTEC.Points[:10000]
	b.Run("exact-rtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 70, Kind: dbscan.IndexRTree})
			if _, err := dbscan.Run(ix, dbscan.Params{Eps: 2, MinPts: 4}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, rho := range []float64{0.05, 0.2, 0.5} {
		b.Run(map[float64]string{0.05: "rho0.05", 0.2: "rho0.2", 0.5: "rho0.5"}[rho], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := approx.Run(pts, approx.Params{Eps: 2, MinPts: 4, Rho: rho}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Intra-variant parallelism (union-find DBSCAN + two-level scheduling) ---

// The big fixture exists so BenchmarkRunParallel has enough work per phase
// for the chunk cursor and per-worker metric batching to matter.
var (
	fixBigOnce sync.Once
	fixBigIx   *dbscan.Index
)

func bigFixture(b *testing.B) *dbscan.Index {
	b.Helper()
	fixBigOnce.Do(func() {
		ds, err := data.Generate(data.SynthConfig{
			Class: data.ClassCF, N: 100_000, NoiseFrac: 0.15, Seed: 0xB16F1,
		})
		if err != nil {
			panic(err)
		}
		fixBigIx = dbscan.BuildIndex(ds.Points, dbscan.IndexOptions{R: 70, Kind: dbscan.IndexRTree})
	})
	return fixBigIx
}

// BenchmarkRunParallel measures intra-variant DBSCAN at increasing worker
// counts against the sequential expansion baseline on a 100k-point fixture.
// Speedup beyond workers=1 requires GOMAXPROCS > 1; on a single core the
// interesting quantity is the parallel algorithm's overhead over Run.
func BenchmarkRunParallel(b *testing.B) {
	ix := bigFixture(b)
	// ε=1 keeps a 100k-point op in the hundreds of milliseconds.
	p := dbscan.Params{Eps: 1, MinPts: 4}
	b.Run("sequential", func(b *testing.B) {
		var m metrics.Counters
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.Run(ix, p, &m); err != nil {
				b.Fatal(err)
			}
		}
		reportWork(b, m.Snapshot(), b.N)
	})
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			var m metrics.Counters
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dbscan.RunParallel(ix, p, w, &m); err != nil {
					b.Fatal(err)
				}
			}
			reportWork(b, m.Snapshot(), b.N)
		})
	}
}

// BenchmarkRunTiled sweeps tile-level parallelism on the 100k fixture
// rebuilt grid-kind: the tiled runner (variant → tile → chunk) at 2×2,
// 4×4, and 8×8 tiles against the untiled chunked runner (tiles=1), both
// over the same frozen grid. Labels are byte-identical at every point of
// the sweep; only the work partitioning differs.
func BenchmarkRunTiled(b *testing.B) {
	bigFixture(b)
	gix := dbscan.BuildIndex(fixBigIx.Pts, dbscan.IndexOptions{R: 70, Kind: dbscan.IndexGrid})
	p := dbscan.Params{Eps: 1, MinPts: 4}
	if err := gix.EnsureGrid(p.Eps); err != nil {
		b.Fatal(err)
	}
	for _, tiles := range []int{1, 4, 16, 64} {
		for _, w := range []int{4, 8} {
			b.Run(fmt.Sprintf("tiles%d/workers%d", tiles, w), func(b *testing.B) {
				var m metrics.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, err := dbscan.RunParallelOpts(context.Background(), gix, p, dbscan.ParallelOptions{
						Workers: w, Tiles: tiles,
					}, &m)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportWork(b, m.Snapshot(), b.N)
			})
		}
	}
}

// BenchmarkTwoLevelSingleVariant is the |V| < T regime: one variant on an
// 8-worker pool. The paper's one-variant-per-worker scheduler leaves 7
// workers idle; donation routes them into the variant's parallel pass.
func BenchmarkTwoLevelSingleVariant(b *testing.B) {
	fixtures(b)
	vs := variant.New([]dbscan.Params{tecParams})
	for _, cfg := range []struct {
		name string
		opt  sched.Options
	}{
		{"variant-only", sched.Options{Threads: 8}},
		{"two-level", sched.Options{Threads: 8, DonateIdle: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Execute(fixTECIx, vs, cfg.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTwoLevelTailSkew is the end-of-run tail: three cheap variants and
// one expensive one on a 4-worker pool, all from scratch. Without donation
// the makespan is the slow variant alone; with it, finished workers join in.
func BenchmarkTwoLevelTailSkew(b *testing.B) {
	fixtures(b)
	vs := variant.New([]dbscan.Params{
		{Eps: 0.5, MinPts: 8}, {Eps: 0.5, MinPts: 16}, {Eps: 0.5, MinPts: 32},
		{Eps: 4, MinPts: 4}, // the tail: far larger ε-neighborhoods
	})
	for _, cfg := range []struct {
		name string
		opt  sched.Options
	}{
		{"variant-only", sched.Options{Threads: 4, DisableReuse: true}},
		{"two-level", sched.Options{Threads: 4, DisableReuse: true, DonateIdle: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Execute(fixTECIx, vs, cfg.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
