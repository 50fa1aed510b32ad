package bench

import (
	"fmt"
	"time"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/reuse"
	"vdbscan/internal/sched"
)

// IndexKinds runs the ε-search substrate head-to-head: the same variant
// workloads on the packed R-tree pair and on the flat cell grid
// (WithIndexKind). Two sections:
//
//   - S1 per dataset (16 identical variants, reuse disabled): pure
//     ε-search throughput, the regime where substrate choice dominates.
//   - S2 on SW1 (the 24-variant sweep with reuse): the end-to-end picture
//     where cluster-MBB sweeps and reuse dilute the substrate's share.
//
// The grid is built (EnsureGrid at the set's max ε) before timing, so both
// rows measure steady-state search cost; the build column reports what
// that preparation cost.
func (s *Suite) IndexKinds() error {
	section(s.Out, "Index kinds: packed R-tree vs flat cell grid (WithIndexKind)")

	fmt.Fprintln(s.Out, "-- S1: 16 identical variants, no reuse, T =", s.Threads, "--")
	t := newTable("Dataset", "Kind", "GridBuild", "RunTime", "Speedup", "Nodes/Cells", "Candidates")
	for _, spec := range s1Specs {
		ds, err := s.Dataset(spec.dataset)
		if err != nil {
			return err
		}
		p := dbscan.Params{Eps: s.scaleEps(spec.eps), MinPts: s1MinPts}
		vs := identicalVariants(p, s1NumVariants)
		var rtreeWall time.Duration
		for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
			ix := s.indexKind(ds, s.R, kind)
			buildStart := time.Now()
			if err := ix.EnsureGrid(p.Eps); err != nil {
				return err
			}
			gridBuild := time.Since(buildStart)
			_, wall, work, err := s.vdbRunIx(ix, vs, s.Threads, reuse.ClusDensity,
				sched.SchedGreedy, true /* no reuse: isolate the substrate */)
			if err != nil {
				return err
			}
			if kind == dbscan.IndexRTree {
				rtreeWall = wall
				t.add(spec.dataset, kind.String(), "-", seconds(wall), 1.0,
					work.NodesVisited, work.CandidatesExamined)
			} else {
				t.add(spec.dataset, kind.String(), seconds(gridBuild), seconds(wall),
					speedup(rtreeWall, wall), work.NodesVisited, work.CandidatesExamined)
			}
		}
	}
	t.write(s.Out)

	fmt.Fprintln(s.Out, "\n-- S2: 24-variant sweep on SW1 with reuse (CLUSDENSITY, T=1) --")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	vs := s.s2Variants()
	maxEps := 0.0
	for _, v := range vs {
		if v.Params.Eps > maxEps {
			maxEps = v.Params.Eps
		}
	}
	t2 := newTable("Kind", "RunTime", "Speedup", "MeanFracReused", "Searches", "Candidates")
	var rtreeWall time.Duration
	for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
		ix := s.indexKind(ds, s.R, kind)
		if err := ix.EnsureGrid(maxEps); err != nil {
			return err
		}
		rr, wall, work, err := s.vdbRunIx(ix, vs, 1, reuse.ClusDensity, sched.SchedGreedy, false)
		if err != nil {
			return err
		}
		frac := 0.0
		for _, r := range rr.Results {
			frac += r.Stats.FractionReused
		}
		frac /= float64(len(rr.Results))
		sp := 1.0
		if kind == dbscan.IndexRTree {
			rtreeWall = wall
		} else {
			sp = speedup(rtreeWall, wall)
		}
		t2.add(kind.String(), seconds(wall), sp, frac,
			work.NeighborSearches, work.CandidatesExamined)
	}
	t2.write(s.Out)
	fmt.Fprintln(s.Out, "\nThe grid wins when cell occupancy is even (uniform-ish data, one")
	fmt.Fprintln(s.Out, "dominant eps); the R-tree holds up under density skew. Both kinds reuse")
	fmt.Fprintln(s.Out, "clusters through Alg. 3/4 here (SCHEDGREEDY); the default sweep runs")
	fmt.Fprintln(s.Out, "eps-chains on either kind.")
	return nil
}
