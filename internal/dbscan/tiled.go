package dbscan

import (
	"vdbscan/internal/gridindex"
	"vdbscan/internal/tiling"
)

// Tiled intra-variant DBSCAN — the third parallelism level, variant →
// tile → chunk. The index's grid is cut into point-balanced cell-rectangle
// tiles (internal/tiling, cached per grid snapshot), and a worker claims
// the cells of a whole tile at a time, in every pass of the cell-major
// runner (cellmajor.go). Nothing else differs from the untiled division: a
// tile is only a set of row spans handed to the same functions, the
// core flags and the union-find are shared by all tiles, and neither a
// closest-pair test nor an ε-search stops at a tile boundary — so labels
// and work counters are those of the untiled run, and there is no seam to
// merge.

// tileSpans is the tiled division of g's cells: one unit per tile of the
// index's tile partition. It returns nil spans when tiling does not apply
// and the caller should divide by chunks — with no observable difference
// beyond the phase name — when the resolved tile target is < 2 or the grid
// is too small to cut.
func tileSpans(ix *Index, g *cellGrid, target, workers int) (int, spans) {
	if target == 0 {
		target = tiling.Auto(g.Len(), workers)
	}
	if target < 2 {
		return 0, nil
	}
	part := ix.TilePartition(target)
	if part == nil || part.Len() < 2 {
		return 0, nil
	}
	tiles := tileRects(part, g)
	return len(tiles), func(u int, yield func(r, c0, c1 int32)) {
		t := tiles[u]
		for r := t.R0; r < t.R1; r++ {
			yield(r, t.C0, t.C1)
		}
	}
}

// tileRects carries part's tiles, which are rectangles of the search grid's
// cells, over to the finer cells of g. Both grids start at the points'
// bounding-box corner, so a cut at search-grid cell boundary b falls in g's
// cell b·side/g.Side(); the grid's far edge maps to g's far edge. The map is
// monotone in b and tiles share their cuts, so the scaled rectangles cover
// every cell of g exactly once, as the tiles cover the search grid.
func tileRects(part *tiling.Partition, g *cellGrid) []gridindex.CellRect {
	ratio := part.Grid().Side() / g.Side()
	fromCols, fromRows := part.Grid().Shape()
	cols, rows := g.Shape()
	scale := func(b, from, to int32) int32 {
		if b >= from {
			return to
		}
		return min(to, int32(float64(b)*ratio))
	}
	out := make([]gridindex.CellRect, part.Len())
	for i, t := range part.Tiles() {
		out[i] = gridindex.CellRect{
			C0: scale(t.C0, fromCols, cols), R0: scale(t.R0, fromRows, rows),
			C1: scale(t.C1, fromCols, cols), R1: scale(t.R1, fromRows, rows),
		}
	}
	return out
}
