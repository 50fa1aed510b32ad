package dbscan

import (
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/tiling"
)

// Tiled intra-variant DBSCAN — the third parallelism level, variant →
// tile → chunk. The grid-sorted point array is cut into point-balanced
// cell-rectangle tiles (internal/tiling) and a worker claims a whole tile
// at a time, searching it through a gridindex.TileView. Everything else is
// the one-pass runner of parallel.go: the same onePass.consume per point,
// the same barrier, the same sequential tail. The output is byte-identical
// to the untiled chunked runner (and therefore to sequential Run):
//
//   - Every ε-search an owned point issues is clamped to the tile's halo,
//     which always contains the search's cell block, so the neighbour list
//     consume sees equals the untiled run's exactly — including the
//     candidate/cell-visit metric counts — and tiles partition the points,
//     so each point is still searched exactly once.
//   - consume's edge-coverage argument never mentions who owns a point: the
//     core flags and the union-find are shared by all tiles, so an ε-edge
//     that straddles a tile boundary is linked by whichever endpoint
//     publishes later, like any other edge. There is no seam merge.
//   - A border point within ε of cores in two tiles records its own
//     neighbour list and is resolved after the barrier by the minimum
//     rule, which cannot depend on tile ownership either.
//
// The tile pass runs through runPhase, so donated pool workers (two-level
// scheduling) pick up tiles exactly as they pick up chunks.

// tileUnits is the tiled work division: one unit per tile, its owned points
// searched through the tile's ε-halo view. It returns a nil unit when
// tiling does not apply and the caller should divide by chunks. It declines
// — with no observable difference, since the tiled result is byte-identical
// anyway — when the index has no current grid (R-tree kind, or staged
// inserts awaiting re-freeze), when the resolved tile target is < 2, or
// when the grid is too small to cut.
func (s *onePass) tileUnits(ix *Index, eps float64, target, workers int) (int, func(u int, w *passWorker)) {
	n := len(s.core)
	if target == 0 {
		target = tiling.Auto(n, workers)
	}
	if target < 2 {
		return 0, nil
	}
	g := ix.Grid()
	if g == nil || g.Len() != n {
		return 0, nil
	}
	part := ix.TilePartition(target)
	if part == nil || part.Len() < 2 {
		return 0, nil
	}

	views := make([]gridindex.TileView, part.Len())
	for t, rect := range part.Tiles() {
		views[t] = g.Tile(rect, eps)
	}
	return len(views), func(u int, w *passWorker) {
		v := &views[u]
		v.OwnedRuns(func(start, end int32) {
			for slot := start; slot < end; slot++ {
				x, y := g.SlotCoords(slot)
				var cand, nodes int
				w.scratch, cand, nodes = v.EpsSearch(geom.Point{X: x, Y: y}, eps, w.scratch[:0])
				w.local.NeighborSearches++
				w.local.CandidatesExamined += int64(cand)
				w.local.NodesVisited += int64(nodes)
				w.local.NeighborsFound += int64(len(w.scratch))
				w.arena = s.consume(g.SlotID(slot), w.scratch, w.arena)
			}
		})
	}
}
