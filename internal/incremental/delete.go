package incremental

import (
	"fmt"

	"vdbscan/internal/cluster"
)

// Delete removes the i-th inserted point (0-based insertion order) and
// repairs the clustering. Deletion is the hard direction of
// IncrementalDBSCAN: removing a point can demote cores, orphan border
// points, and *split* a cluster into disconnected parts. The repair
// strategy is local re-clustering:
//
//  1. remove the point from its cell and decrement its neighbors' counts,
//     demoting cores that fall under minpts;
//  2. collect the affected clusters — those owning the deleted point, any
//     demoted core, or any point in a demoted core's neighborhood;
//  3. clear the labels of all their live points and re-run a DBSCAN
//     expansion restricted to that set (core flags are already
//     up to date, so only connectivity is recomputed).
//
// Deletion never merges clusters (edges are only removed), so restricting
// the re-clustering to the affected clusters is exact. The cost is
// O(affected cluster sizes), not O(|D|) — except for one O(|D|) label scan.
//
// Labels() keeps one entry per insertion; deleted points report Noise.
func (c *Clusterer) Delete(i int) error {
	if i < 0 || i >= c.Len() {
		return fmt.Errorf("incremental: index %d out of range [0,%d)", i, c.Len())
	}
	if c.deleted(i) {
		return fmt.Errorf("incremental: point %d already deleted", i)
	}
	p := c.pts[i]
	// Delete by index, not value: with duplicate coordinates a value
	// delete could remove a live twin's entry and desynchronize the
	// per-index count/core bookkeeping.
	c.removeFromCell(int32(i))
	c.markDeleted(i)

	// Neighbor counts drop; collect demotions.
	n := c.neighbors(p, nil) // post-delete: excludes i
	var demoted []int32
	for _, q := range n {
		c.counts[q]--
		if c.core[q] && int(c.counts[q]) < c.params.MinPts {
			c.core[q] = false
			demoted = append(demoted, q)
		}
	}
	c.counts[i] = 0
	wasCore := c.core[i]
	c.core[i] = false
	oldLabel := c.resolve(c.rawLabels[i])
	c.rawLabels[i] = cluster.Noise

	// Fast path: the deleted point was noise/border and nothing demoted —
	// no reachability changed for anyone else.
	if !wasCore && len(demoted) == 0 {
		return nil
	}

	// Affected clusters: the deleted point's, plus every cluster touching
	// a demoted core's neighborhood (their border points may lose support).
	// There are almost always 1–3 of them, so a small slice with a linear
	// membership scan beats a map — the scan below tests every live point.
	var affected []int32
	addAffected := func(l int32) {
		for _, a := range affected {
			if a == l {
				return
			}
		}
		affected = append(affected, l)
	}
	if oldLabel > 0 {
		addAffected(oldLabel)
	}
	var scratch []int32
	for _, d := range demoted {
		if l := c.resolve(c.rawLabels[d]); l > 0 {
			addAffected(l)
		}
		scratch = c.neighbors(c.pts[d], scratch[:0])
		for _, k := range scratch {
			if l := c.resolve(c.rawLabels[k]); l > 0 {
				addAffected(l)
			}
		}
	}
	if len(affected) == 0 {
		return nil
	}
	isAffected := func(l int32) bool {
		for _, a := range affected {
			if a == l {
				return true
			}
		}
		return false
	}

	// Collect live members of affected clusters and clear their labels.
	var members []int32
	for j := range c.rawLabels {
		if c.deleted(j) {
			continue
		}
		if l := c.resolve(c.rawLabels[j]); l > 0 && isAffected(l) {
			members = append(members, int32(j))
			c.rawLabels[j] = cluster.Unclassified
		}
	}

	// Local DBSCAN over the affected set. Core flags are current; only
	// connectivity must be rebuilt. Each connected core component gets a
	// fresh cluster id; border members attach to any adjacent core.
	// Membership and visit marks live in epoch-stamped scratch arrays on
	// the Clusterer (see markGen) — the repair path runs per delete, and
	// allocating two maps per run dominated its profile.
	c.markGen++
	gen := c.markGen
	for len(c.markIn) < c.Len() {
		c.markIn = append(c.markIn, 0)
		c.markVis = append(c.markVis, 0)
	}
	for _, j := range members {
		c.markIn[j] = gen
	}
	for _, j := range members {
		if c.markVis[j] == gen || !c.core[j] {
			continue
		}
		id := c.newCluster()
		queue := []int32{j}
		c.markVis[j] = gen
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			c.rawLabels[u] = id
			scratch = c.neighbors(c.pts[u], scratch[:0])
			for _, k := range scratch {
				if c.markIn[k] != gen {
					continue // other clusters are unaffected by deletions
				}
				if c.core[k] && c.markVis[k] != gen {
					c.markVis[k] = gen
					queue = append(queue, k)
				} else if !c.core[k] && c.rawLabels[k] == cluster.Unclassified {
					c.rawLabels[k] = id // border attachment
				}
			}
		}
	}
	// Members not reached by any affected core: border of an unaffected
	// adjacent core, or noise.
	for _, j := range members {
		if c.rawLabels[j] != cluster.Unclassified {
			continue
		}
		label := cluster.Noise
		scratch = c.neighbors(c.pts[j], scratch[:0])
		for _, k := range scratch {
			if k != j && c.core[k] && c.rawLabels[k] > 0 {
				label = c.resolve(c.rawLabels[k])
				break
			}
		}
		c.rawLabels[j] = label
	}
	return nil
}

// deleted reports whether insertion i has been removed.
func (c *Clusterer) deleted(i int) bool {
	return i < len(c.dead) && c.dead[i]
}

// markDeleted records the removal.
func (c *Clusterer) markDeleted(i int) {
	for len(c.dead) < c.Len() {
		c.dead = append(c.dead, false)
	}
	c.dead[i] = true
	c.liveCount--
}
