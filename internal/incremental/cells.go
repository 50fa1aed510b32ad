package incremental

import (
	"math"
	"slices"

	"vdbscan/internal/geom"
)

// The clusterer answers its ε-searches from a hash of ε-wide square
// cells over its own point array, the fixed-ε neighbourhood structure of
// Wang, Gu & Shun (arXiv 1912.06255): one (ε, minpts) per clusterer means
// one cell side, so a point's ε-neighbourhood lies in the 3×3 block of
// cells around it. An insert appends to one cell, a delete removes from
// one, and nothing is ever rebuilt.

// cellKey names the cell (⌊x/ε⌋, ⌊y/ε⌋).
type cellKey struct{ x, y int64 }

// maxCell bounds cell coordinates, so the float→int conversion is always
// defined. Clamping never moves two cells further apart, so the 3×3
// block around a clamped point still holds all its neighbours.
const maxCell = 1 << 52

func cellCoord(v float64) int64 {
	return int64(math.Max(-maxCell, math.Min(maxCell, math.Floor(v))))
}

// cellOf returns p's cell. ok is false when a coordinate is not finite:
// such a point is within ε of nothing (its distances are NaN or +Inf), so
// it lives in no cell.
func (c *Clusterer) cellOf(p geom.Point) (k cellKey, ok bool) {
	if !geom.Finite(p.X, p.Y) {
		return cellKey{}, false
	}
	return cellKey{cellCoord(p.X / c.params.Eps), cellCoord(p.Y / c.params.Eps)}, true
}

// addToCell files insertion i in its cell. Insertion indices only grow,
// so every cell stays in ascending index order.
func (c *Clusterer) addToCell(i int32) {
	if k, ok := c.cellOf(c.pts[i]); ok {
		c.cells[k] = append(c.cells[k], i)
	}
}

// removeFromCell takes insertion i out of its cell, keeping the order.
func (c *Clusterer) removeFromCell(i int32) {
	k, ok := c.cellOf(c.pts[i])
	if !ok {
		return
	}
	ids := c.cells[k]
	if j, found := slices.BinarySearch(ids, i); found {
		ids = slices.Delete(ids, j, j+1)
	}
	if len(ids) == 0 {
		delete(c.cells, k)
	} else {
		c.cells[k] = ids
	}
}

// neighbors appends to dst the live points within ε of q (q itself
// included when it is one), cell by cell in ascending index order. The
// work counters record one search, its candidates, and the nine cells
// probed as nodes visited.
func (c *Clusterer) neighbors(q geom.Point, dst []int32) []int32 {
	c.m.AddNeighborSearches(1)
	k, ok := c.cellOf(q)
	if !ok {
		return dst
	}
	epsSq := c.params.Eps * c.params.Eps
	candidates := 0
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			ids := c.cells[cellKey{k.x + dx, k.y + dy}]
			candidates += len(ids)
			for _, i := range ids {
				if q.DistSq(c.pts[i]) <= epsSq {
					dst = append(dst, i)
				}
			}
		}
	}
	c.m.AddCandidatesExamined(int64(candidates))
	c.m.AddNodesVisited(9)
	return dst
}
