package rtree

import (
	"container/heap"
	"math"

	"vdbscan/internal/geom"
)

// Neighbor is one k-nearest-neighbor result.
type Neighbor struct {
	// Index is the point's position in Points().
	Index int32
	// DistSq is the squared Euclidean distance to the query point.
	DistSq float64
}

// NearestK returns the k nearest indexed points to q in ascending distance
// order, using best-first branch-and-bound over entry MBBs (Hjaltason &
// Samet). Fewer than k results are returned when the tree holds fewer
// points. Ties are broken by point index for determinism.
//
// The search is exact for any leaf occupancy: a packed leaf entry is
// expanded into its individual points when reached.
func (f *Flat) NearestK(q geom.Point, k int) []Neighbor {
	if k <= 0 || f.size == 0 {
		return nil
	}
	// The root is always expanded: nothing is pruned while fewer than k
	// results are held.
	pq := &nnQueue{{node: 0}}

	result := make([]Neighbor, 0, k)
	// worst returns the current k-th best distance (or +inf).
	worst := func() float64 {
		if len(result) < k {
			return math.Inf(1)
		}
		return result[len(result)-1].DistSq
	}
	insert := func(n Neighbor) {
		// Insertion into the sorted result list, keeping at most k.
		lo := 0
		for lo < len(result) &&
			(result[lo].DistSq < n.DistSq ||
				(result[lo].DistSq == n.DistSq && result[lo].Index < n.Index)) {
			lo++
		}
		if lo >= k {
			return
		}
		if len(result) < k {
			result = append(result, Neighbor{})
		}
		copy(result[lo+1:], result[lo:])
		result[lo] = n
	}

	for pq.Len() > 0 {
		item := heap.Pop(pq).(nnItem)
		if item.distSq > worst() {
			break // every remaining node is farther than the k-th best
		}
		lo, hi := f.nodeEnt[item.node], f.nodeEnt[item.node+1]
		if item.node >= f.firstLeaf {
			for e := lo; e < hi; e++ {
				if f.entMBB(e).MinDistSq(q) > worst() {
					continue
				}
				end := f.entRef[e] + f.entCnt[e]
				for i := f.entRef[e]; i < end; i++ {
					d := q.DistSq(f.pts[i])
					if d <= worst() {
						insert(Neighbor{Index: i, DistSq: d})
					}
				}
			}
			continue
		}
		for e := lo; e < hi; e++ {
			d := f.entMBB(e).MinDistSq(q)
			if d <= worst() {
				heap.Push(pq, nnItem{node: f.entRef[e], distSq: d})
			}
		}
	}
	return result
}

type nnItem struct {
	node   int32
	distSq float64
}

type nnQueue []nnItem

func (q nnQueue) Len() int           { return len(q) }
func (q nnQueue) Less(a, b int) bool { return q[a].distSq < q[b].distSq }
func (q nnQueue) Swap(a, b int)      { q[a], q[b] = q[b], q[a] }
func (q *nnQueue) Push(x any)        { *q = append(*q, x.(nnItem)) }
func (q *nnQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }
