package bench

import (
	"fmt"
	"time"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/optics"
	"vdbscan/internal/reuse"
	"vdbscan/internal/rtree"
	"vdbscan/internal/sched"
	"vdbscan/internal/variant"
)

// SingleTree returns the R-tree-kind index ix with T_low standing in for
// T_high, so cluster-MBB sweeps run on the low-resolution tree.
func SingleTree(ix *dbscan.Index) (*dbscan.Index, error) {
	parts, err := ix.FrozenParts()
	if err != nil {
		return nil, err
	}
	parts.High = parts.Low
	return dbscan.IndexFromFrozen(parts)
}

// Ablations regenerates the design-choice studies of DESIGN.md §5 on SW1:
// two-tree vs single-tree, bulk load vs dynamic insertion, seed-size
// filtering, OPTICS vs VariantDBSCAN for ε-sweeps, union-find vs expansion
// DBSCAN, and the SCHEDTREE extension vs the paper's heuristics.
func (s *Suite) Ablations() error {
	section(s.Out, "Ablations: design choices (SW1)")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	vs := s.s2Variants()
	t := newTable("Ablation", "Config", "Time", "Notes")

	// 1. Two-tree vs single-tree cluster sweeps, on the paper's R-trees.
	ix := s.index(ds, s.R)
	rt := s.indexKind(ds, s.R, dbscan.IndexRTree)
	single, err := SingleTree(rt)
	if err != nil {
		return err
	}
	for _, cfg := range []struct {
		name string
		ix   *dbscan.Index
	}{{"two-tree", rt}, {"single-tree", single}} {
		start := time.Now()
		if _, err := sched.Execute(cfg.ix, vs, sched.Options{Threads: 1, Strategy: sched.SchedGreedy, Scheme: reuse.ClusDensity}); err != nil {
			return err
		}
		t.add("tree-design", cfg.name, seconds(time.Since(start)),
			"T_high sweeps vs low-res sweeps")
	}

	// 2. Bulk load vs dynamic insertion.
	start := time.Now()
	dbscan.BuildIndex(ds.Points, dbscan.IndexOptions{R: s.R, Kind: dbscan.IndexRTree})
	t.add("index-build", "bulkload", seconds(time.Since(start)), fmt.Sprintf("%d points", ds.Len()))
	start = time.Now()
	dyn := rtree.New(rtree.Options{})
	for _, p := range ds.Points {
		dyn.Insert(p)
	}
	t.add("index-build", "insert", seconds(time.Since(start)), "quadratic-split inserts")

	// 3. Seed-size filtering.
	for _, minSize := range []int{0, 64} {
		start = time.Now()
		rr, err := sched.Execute(ix, vs, sched.Options{
			Threads: 1, Strategy: sched.SchedGreedy, Scheme: reuse.ClusDensity, MinSeedSize: minSize,
		})
		if err != nil {
			return err
		}
		t.add("seed-filter", fmt.Sprintf("minSize=%d", minSize), seconds(time.Since(start)),
			fmt.Sprintf("meanReuse=%.1f%%", rr.MeanFractionReused()*100))
	}

	// 4. OPTICS vs VariantDBSCAN on an ε-only sweep at fixed minpts.
	epsSweep := s.scaleEpsAll([]float64{0.2, 0.3, 0.4, 0.5, 0.6})
	start = time.Now()
	ord, err := optics.Run(ix, epsSweep[len(epsSweep)-1], 4, nil)
	if err != nil {
		return err
	}
	for _, e := range epsSweep {
		if _, err := ord.ExtractDBSCAN(e); err != nil {
			return err
		}
	}
	t.add("eps-sweep", "optics", seconds(time.Since(start)),
		fmt.Sprintf("%d extractions from one ordering", len(epsSweep)))
	var ps []dbscan.Params
	for _, e := range epsSweep {
		ps = append(ps, dbscan.Params{Eps: e, MinPts: 4})
	}
	start = time.Now()
	if _, err := sched.Execute(ix, variant.New(ps), sched.Options{Threads: 1, Strategy: sched.SchedGreedy, Scheme: reuse.ClusDensity}); err != nil {
		return err
	}
	t.add("eps-sweep", "variantdbscan", seconds(time.Since(start)),
		"also supports varying minpts (OPTICS cannot)")

	// 5. Expansion vs union-find single-variant DBSCAN (the one-pass
	// disjoint-set runner at one worker).
	p := dbscan.Params{Eps: s.scaleEps(0.4), MinPts: 4}
	start = time.Now()
	if _, err := dbscan.Run(ix, p, nil); err != nil {
		return err
	}
	t.add("dbscan-core", "expansion", seconds(time.Since(start)), p.String())
	start = time.Now()
	if _, err := dbscan.RunParallel(ix, p, 1, nil); err != nil {
		return err
	}
	t.add("dbscan-core", "unionfind", seconds(time.Since(start)), "disjoint-set formulation")

	// 6. Intra-variant parallel DBSCAN vs variant-level parallelism.
	start = time.Now()
	for _, v := range ps {
		if _, err := dbscan.RunParallel(ix, v, s.Threads, nil); err != nil {
			return err
		}
	}
	t.add("parallel-grain", "intra-variant", seconds(time.Since(start)),
		"master/worker range queries (§III)")
	start = time.Now()
	if _, err := sched.Execute(ix, variant.New(ps), sched.Options{Threads: s.Threads, Strategy: sched.SchedGreedy, Scheme: reuse.ClusDensity}); err != nil {
		return err
	}
	t.add("parallel-grain", "variant-level", seconds(time.Since(start)),
		"VariantDBSCAN with reuse")

	// 7. Scheduling: the SCHEDTREE extension vs the paper's heuristics.
	for _, strategy := range sched.AllStrategies {
		start = time.Now()
		rr, err := sched.Execute(ix, vs, sched.Options{
			Threads: s.Threads, Scheme: reuse.ClusDensity, Strategy: strategy,
		})
		if err != nil {
			return err
		}
		t.add("scheduling", strategy.String(), seconds(time.Since(start)),
			fmt.Sprintf("meanReuse=%.1f%% slowdownOverLB=%.1f%%",
				rr.MeanFractionReused()*100, rr.SlowdownOverLowerBound()*100))
	}

	t.write(s.Out)
	return nil
}
