// Package core implements VARIANTDBSCAN (paper Algorithm 3) and
// EXPANDCLUSTER (Algorithm 4): clustering one DBSCAN variant by reusing the
// completed clustering of another variant that satisfies the inclusion
// criteria ε_i ≥ ε_j, minpts_i ≤ minpts_j.
//
// For each seed cluster selected by the reuse heuristic (internal/reuse):
//
//  1. copy the old cluster's points into a new cluster and mark them
//     visited, skipping their ε-searches entirely (the reuse win);
//  2. build an MBB around the cluster, augment it by ε, and sweep the
//     high-resolution tree T_high for candidate points (Fig. 2a);
//  3. ε-search each point *outside* the cluster and intersect with the
//     cluster to find the inside edge points that can grow it (Fig. 2b-c);
//  4. expand from those edge points exactly like DBSCAN, recording any old
//     cluster whose points get absorbed as *destroyed* (no longer a seed).
//
// Points not covered by any reused cluster are clustered from scratch
// afterwards. The output is equivalent to plain DBSCAN up to the usual
// border-point order ambiguity (paper §V-D reports quality ≥ 0.998).
package core

import (
	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/reuse"
	"vdbscan/internal/variant"
)

// Stats reports what one VariantDBSCAN execution did.
type Stats struct {
	// FromScratch is true when no reusable variant was available and plain
	// DBSCAN ran (Algorithm 3, line 19).
	FromScratch bool
	// PointsReused counts points copied from the previous variant's
	// clusters without an ε-search.
	PointsReused int
	// FractionReused is PointsReused / |D| (0 when |D| is 0).
	FractionReused float64
	// ClustersReused counts seed clusters successfully expanded.
	ClustersReused int
	// ClustersDestroyed counts seed clusters invalidated by other seeds'
	// expansions.
	ClustersDestroyed int
}

// Options tunes the reuse pass beyond the scheme choice.
type Options struct {
	// Scheme is the seed-cluster prioritization (paper §IV-C).
	Scheme reuse.Scheme
	// MinSeedSize excludes clusters below this size from reuse (they are
	// clustered from scratch in the remainder pass); 0 or 1 reuses all.
	// This implements the selection criterion the paper's getSeedList
	// description leaves open.
	MinSeedSize int
	// Rec, when non-nil, records the expand/scratch phase boundaries of
	// variant Variant into the calling worker's trace ring. Phase events
	// are emitted once per phase — never per point or per ε-search — and
	// the nil default is a free no-op, so the hot paths are untouched
	// either way.
	Rec *obs.Recorder
	// Variant is the variant ID used in trace events.
	Variant int32
}

// Run clusters variant p over the shared index. prev is the completed
// clustering of a variant vj with variant.CanReuse(p, vj.Params); pass nil
// to cluster from scratch (plain DBSCAN). prev must be in the index's
// sorted point space. m may be nil.
func Run(ix *dbscan.Index, p dbscan.Params, prev *cluster.Result, scheme reuse.Scheme, m *metrics.Counters) (*cluster.Result, Stats, error) {
	return RunOpts(ix, p, prev, Options{Scheme: scheme}, m)
}

// RunOpts is Run with full reuse options.
func RunOpts(ix *dbscan.Index, p dbscan.Params, prev *cluster.Result, opt Options, m *metrics.Counters) (*cluster.Result, Stats, error) {
	if prev == nil || prev.NumClusters == 0 {
		opt.Rec.PhaseBegin(opt.Variant, obs.PhaseScratch)
		res, err := dbscan.Run(ix, p, m)
		opt.Rec.PhaseEnd(opt.Variant, obs.PhaseScratch)
		return res, Stats{FromScratch: true}, err
	}
	if err := p.Validate(); err != nil {
		return nil, Stats{}, err
	}

	n := ix.Len()
	res := cluster.NewResult(n)
	visited := make([]bool, n)
	destroyed := make([]bool, prev.NumClusters+1)
	infos := prev.Infos(ix.Pts)
	seeds := reuse.SeedListFiltered(infos, opt.Scheme, opt.MinSeedSize)

	var stats Stats
	var cid int32
	// expandEpoch dedupes expandSet membership without clearing an array
	// per seed: expandEpoch[i] == epoch means i is in the current seed's
	// expandSet.
	expandEpoch := make([]int32, n)
	var epoch int32
	var frontier, nbuf, cbuf []int32

	opt.Rec.PhaseBegin(opt.Variant, obs.PhaseExpand)
	for _, sid := range seeds {
		if destroyed[sid] {
			continue
		}
		members := prev.ClusterPoints(sid)
		// Line 9: copy the old cluster into a new cluster and mark visited,
		// obviating ε-searches on all of these points.
		cid++
		for _, i := range members {
			visited[i] = true
			res.Labels[i] = cid
		}
		stats.PointsReused += len(members)
		stats.ClustersReused++
		m.AddPointsReused(int64(len(members)))
		m.AddClustersReused(1)

		// Lines 10-12: ε-augmented MBB around the cluster, swept over the
		// high-resolution tree; candidates not in C are the outside points.
		mbb := infos[sid-1].MBB.Expand(p.Eps)
		var nodes int64
		cbuf, nodes = ix.HighCandidates(mbb, cbuf[:0])
		m.AddNodesVisited(nodes)
		m.AddCandidatesExamined(int64(len(cbuf)))

		// Lines 13-16: ε-search each outside point; its neighbors inside C
		// are edge points that can grow the cluster. They are removed from
		// the visited set so EXPANDCLUSTER searches them.
		epoch++
		frontier = frontier[:0]
		for _, ci := range cbuf {
			if res.Labels[ci] == cid {
				continue // inside C
			}
			nbuf = ix.NeighborSearch(ix.Pts[ci], p.Eps, m, nbuf[:0])
			for _, ni := range nbuf {
				if res.Labels[ni] == cid && expandEpoch[ni] != epoch {
					expandEpoch[ni] = epoch
					visited[ni] = false
					frontier = append(frontier, ni)
				}
			}
		}

		// Line 17: EXPANDCLUSTER (Algorithm 4). Both buffers come back so
		// queue growth inside the expansion is amortized across seeds
		// instead of re-grown from the stale frontier capacity each time.
		frontier, nbuf = expandCluster(ix, p, res, visited, destroyed, prev, cid, sid, frontier, nbuf, m, &stats)
	}
	opt.Rec.PhaseEnd(opt.Variant, obs.PhaseExpand)
	opt.Rec.PhaseBegin(opt.Variant, obs.PhaseScratch)

	// Line 18: cluster the remainder with DBSCAN over unvisited points.
	// Points enter the queue at most once (marked visited at discovery).
	queue := frontier[:0]
	scratch := nbuf[:0]
	absorb := func(neighbors []int32, cid int32) {
		for _, k := range neighbors {
			if !visited[k] {
				visited[k] = true
				queue = append(queue, k)
			}
			if res.Labels[k] <= 0 {
				res.Labels[k] = cid
			}
		}
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		scratch = ix.NeighborSearch(ix.Pts[i], p.Eps, m, scratch[:0])
		if len(scratch) < p.MinPts {
			res.Labels[i] = cluster.Noise
			continue
		}
		cid++
		res.Labels[i] = cid
		queue = queue[:0]
		absorb(scratch, cid)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			scratch = ix.NeighborSearch(ix.Pts[j], p.Eps, m, scratch[:0])
			if len(scratch) >= p.MinPts {
				absorb(scratch, cid)
			}
		}
	}
	res.NumClusters = int(cid)
	opt.Rec.PhaseEnd(opt.Variant, obs.PhaseScratch)
	if n > 0 {
		stats.FractionReused = float64(stats.PointsReused) / float64(n)
	}
	return res, stats, nil
}

// expandCluster is Algorithm 4: BFS expansion of cluster cid from the edge
// frontier, absorbing density-reachable points and recording destroyed old
// clusters. It returns the (possibly re-grown) queue and scratch buffers so
// the caller amortizes them across every seed cluster of the variant.
func expandCluster(
	ix *dbscan.Index, p dbscan.Params, res *cluster.Result,
	visited []bool, destroyed []bool, prev *cluster.Result,
	cid int32, seedID int32, frontier []int32, scratch []int32,
	m *metrics.Counters, stats *Stats,
) (queueBuf, scratchBuf []int32) {
	queue := frontier // take ownership; caller resets
	// Frontier points are cluster edge points whose visited flag was
	// cleared (Algorithm 3, line 16); mark them visited now so each is
	// searched exactly once. Newly discovered points are marked visited at
	// discovery, bounding the queue by the number of absorbed points.
	for _, i := range queue {
		visited[i] = true
	}
	for qi := 0; qi < len(queue); qi++ {
		i := queue[qi]
		scratch = ix.NeighborSearch(ix.Pts[i], p.Eps, m, scratch[:0])
		if len(scratch) < p.MinPts {
			continue
		}
		for _, k := range scratch {
			if !visited[k] {
				visited[k] = true
				queue = append(queue, k)
			}
			if res.Labels[k] <= 0 {
				res.Labels[k] = cid
				// A point absorbed from another old cluster destroys it as
				// a seed candidate (Algorithm 4, line 10).
				if old := prev.Labels[k]; old > 0 && old != seedID && !destroyed[old] {
					destroyed[old] = true
					stats.ClustersDestroyed++
					m.AddClustersDestroyed(1)
				}
			}
		}
	}
	return queue, scratch
}

// ChooseSource picks, among completed variants, the reuse source for p with
// the smallest normalized parameter difference (the SCHEDGREEDY criterion);
// it returns -1 when none satisfies the inclusion criteria. completed holds
// the parameters of finished variants; norm must come from the full variant
// set so distances are comparable.
func ChooseSource(p dbscan.Params, completed []dbscan.Params, norm variant.Normalizer) int {
	best := -1
	bestDist := 0.0
	for i, c := range completed {
		if !variant.CanReuse(p, c) {
			continue
		}
		d := norm.Dist(p, c)
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
