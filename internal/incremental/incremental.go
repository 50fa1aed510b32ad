// Package incremental implements insertion-incremental DBSCAN in the
// spirit of IncrementalDBSCAN (Ester, Kriegel, Sander, Wimmer, Xu; VLDB
// 1998): maintaining a DBSCAN clustering under a stream of point
// insertions without re-clustering from scratch.
//
// The paper's early-warning motivation makes this the natural companion to
// VariantDBSCAN: monitoring ingests new TEC observations continuously, and
// re-clustering a whole frame for every arriving batch wastes exactly the
// work reuse is meant to save.
//
// Mechanics per insertion of p:
//
//  1. p's ε-neighborhood N is fetched from the cell store (cells.go);
//     every q ∈ N gains one neighbor, which can promote q to a core point.
//  2. The *seed set* is p (if core) plus the just-promoted cores. Cluster
//     labels of points density-reachable from the seed set are updated by a
//     local expansion:
//     - seeds adjacent to existing clusters merge them (cluster IDs are
//     tracked in a union-find, so merging is O(α));
//     - otherwise a new cluster forms;
//     - absorbed noise/unclassified points get the cluster's label.
//  3. If no core appears in N, p is noise (or a border point of an
//     adjacent core's cluster).
//
// Labels returns a materialized cluster.Result equivalent (up to DBSCAN's
// usual border-point ambiguity) to running batch DBSCAN on the points
// inserted so far — the invariant the tests enforce.
package incremental

import (
	"fmt"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/unionfind"
)

// Clusterer maintains a DBSCAN clustering under insertions.
type Clusterer struct {
	params dbscan.Params
	m      *metrics.Counters

	// pts holds every inserted point, deleted ones included, by insertion
	// index; cells indexes the live finite ones by ε-cell (cells.go).
	pts   []geom.Point
	cells map[cellKey][]int32

	// counts[i] = |N_ε(i)| including i itself.
	counts []int32
	core   []bool
	// rawLabels hold pre-merge cluster ids; the DSU resolves merges.
	rawLabels []int32
	dsu       *unionfind.DSU // over cluster ids
	nextID    int32
	dsuCap    int32

	// dead marks removed insertions; liveCount = Len() - removed.
	dead      []bool
	liveCount int

	// Delete-repair scratch: epoch-stamped membership marks reused across
	// deletes. markIn[i]/markVis[i] == markGen means "in the affected set" /
	// "visited by the repair BFS" for the current delete — profiling showed
	// per-delete maps for those two sets dominating the repair hot path.
	markIn  []int32
	markVis []int32
	markGen int32
}

// New returns an empty incremental clusterer. m may be nil.
func New(p dbscan.Params, m *metrics.Counters) (*Clusterer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Clusterer{
		params: p,
		m:      m,
		cells:  map[cellKey][]int32{},
		dsu:    unionfind.NewDSU(64),
		dsuCap: 64,
	}, nil
}

// Len returns the number of insertions (including deleted points).
func (c *Clusterer) Len() int { return len(c.counts) }

// LiveLen returns the number of points currently in the clustering.
func (c *Clusterer) LiveLen() int { return c.liveCount }

// Params echoes the clusterer's parameters.
func (c *Clusterer) Params() dbscan.Params { return c.params }

// newCluster allocates a cluster id.
func (c *Clusterer) newCluster() int32 {
	c.nextID++
	if c.nextID >= c.dsuCap {
		// Grow the DSU by rebuilding with the unions replayed implicitly:
		// DSU state is only reachable via Find, so copy roots.
		old := c.dsu
		oldCap := c.dsuCap
		c.dsuCap *= 2
		c.dsu = unionfind.NewDSU(int(c.dsuCap))
		for i := int32(1); i < oldCap; i++ {
			c.dsu.Union(i, old.Find(i))
		}
	}
	return c.nextID
}

// resolve maps a raw label to its post-merge cluster id.
func (c *Clusterer) resolve(raw int32) int32 {
	if raw <= 0 {
		return raw
	}
	return c.dsu.Find(raw)
}

// Insert adds point p and updates the clustering.
func (c *Clusterer) Insert(p geom.Point) {
	idx := int32(c.Len())
	c.pts = append(c.pts, p)
	c.addToCell(idx)
	c.counts = append(c.counts, 0)
	c.core = append(c.core, false)
	c.rawLabels = append(c.rawLabels, cluster.Unclassified)

	c.liveCount++

	n := c.neighbors(p, nil) // includes idx itself
	c.counts[idx] = int32(len(n))

	// Every preexisting neighbor gains one neighbor; collect promotions.
	var seeds []int32
	for _, q := range n {
		if q == idx {
			continue
		}
		c.counts[q]++
		if !c.core[q] && int(c.counts[q]) >= c.params.MinPts {
			c.core[q] = true
			seeds = append(seeds, q)
		}
	}
	if int(c.counts[idx]) >= c.params.MinPts {
		c.core[idx] = true
		seeds = append(seeds, idx)
	}

	if len(seeds) == 0 {
		// No new core points. p is a border point if any neighbor is core,
		// otherwise noise.
		label := cluster.Noise
		for _, q := range n {
			if q != idx && c.core[q] && c.rawLabels[q] > 0 {
				label = c.resolve(c.rawLabels[q])
				break
			}
		}
		c.rawLabels[idx] = label
		return
	}

	// The seeds (newly-promoted cores, and p itself when core) are the only
	// points whose reachability changed. Reachability propagates between
	// two seeds only when one lies in the other's ε-neighborhood, so:
	//
	//  1. fetch every seed's neighborhood once;
	//  2. group seeds into connected components (seed adjacency);
	//  3. per group, merge the clusters of all CORE neighbors — a border
	//     point shared with another cluster is a tie, never a merge — or
	//     start a new cluster when no neighbor is clustered;
	//  4. label the group's seeds and absorb their label-less neighbors
	//     (former noise now density-reachable) as border points.
	seedPos := make(map[int32]int, len(seeds))
	for i, s := range seeds {
		seedPos[s] = i
	}
	neighborhoods := make([][]int32, len(seeds))
	for i, s := range seeds {
		neighborhoods[i] = c.neighbors(c.pts[s], nil)
	}
	groups := unionfind.NewDSU(len(seeds))
	for i, nb := range neighborhoods {
		for _, k := range nb {
			if j, ok := seedPos[k]; ok && j != i {
				groups.Union(int32(i), int32(j))
			}
		}
	}

	// Per group: collect the target cluster (merging as needed).
	targets := map[int32]int32{} // group root -> resolved cluster id
	for i, nb := range neighborhoods {
		root := groups.Find(int32(i))
		target := targets[root]
		for _, k := range nb {
			if !c.core[k] || c.rawLabels[k] <= 0 {
				continue
			}
			kRoot := c.resolve(c.rawLabels[k])
			if target == 0 {
				target = kRoot
			} else if kRoot != target {
				c.dsu.Union(target, kRoot)
				target = c.resolve(target)
			}
		}
		if target != 0 {
			targets[root] = target
		}
	}
	for i := range seeds {
		root := groups.Find(int32(i))
		if targets[root] == 0 {
			targets[root] = c.newCluster()
		}
	}

	// Label seeds and absorb their unlabeled neighbors.
	for i, s := range seeds {
		target := targets[groups.Find(int32(i))]
		c.rawLabels[s] = target
		for _, k := range neighborhoods[i] {
			if c.rawLabels[k] <= 0 {
				c.rawLabels[k] = target
			}
		}
	}
}

// InsertBatch inserts points in order.
func (c *Clusterer) InsertBatch(pts []geom.Point) {
	for _, p := range pts {
		c.Insert(p)
	}
}

// Labels materializes the current clustering with dense cluster IDs
// 1..NumClusters in the insertion order of the points.
func (c *Clusterer) Labels() *cluster.Result {
	res := cluster.NewResult(c.Len())
	remap := map[int32]int32{}
	var next int32
	for i, raw := range c.rawLabels {
		switch {
		case raw > 0:
			root := c.resolve(raw)
			id, ok := remap[root]
			if !ok {
				next++
				id = next
				remap[root] = id
			}
			res.Labels[i] = id
		default:
			res.Labels[i] = cluster.Noise
		}
	}
	res.NumClusters = int(next)
	return res
}

// String implements fmt.Stringer.
func (c *Clusterer) String() string {
	return fmt.Sprintf("incremental{points=%d params=%v}", c.Len(), c.params)
}
