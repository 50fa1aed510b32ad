package gridindex

// Tile views: rectangular cell-range slices of a frozen Flat grid, the
// substrate of the tile level of parallelism (variant → tile → chunk).
// A TileView owns a half-open rectangle of cells; because Freeze
// grid-sorts the coordinates into CSR runs, the view's points are a set
// of contiguous slot ranges — no coordinates are copied, a tile is pure
// arithmetic over the shared cellStart offsets.
//
// Each view carries an ε-halo: the owned rectangle expanded by
// reach = ⌈eps/side⌉ cells per direction (clamped to the grid). Any
// ε-search whose query point lies in an owned cell scans a cell block
// that is fully inside the halo, so a per-tile search clamped to the
// halo returns exactly the full-grid result — including identical
// candidate and cell-visit counts. That equivalence is what makes the
// tiled DBSCAN runner byte-identical to the untiled one, and it is
// property-tested in tileview_test.go.

import (
	"math"

	"vdbscan/internal/geom"
	"vdbscan/internal/kernel"
)

// CellRect is a half-open rectangle of grid cells: columns [C0, C1) ×
// rows [R0, R1).
type CellRect struct {
	C0, R0, C1, R1 int32
}

// Cells returns the number of cells the rectangle covers.
func (r CellRect) Cells() int {
	if r.Empty() {
		return 0
	}
	return int(r.C1-r.C0) * int(r.R1-r.R0)
}

// Empty reports whether the rectangle covers no cells.
func (r CellRect) Empty() bool { return r.C1 <= r.C0 || r.R1 <= r.R0 }

// Shape returns the grid's cell geometry (columns, rows).
func (f *Flat) Shape() (cols, rows int32) { return f.cols, f.rows }

// CellRange returns the half-open slot range holding the points of row
// r's cells [c0, c1) — one contiguous CSR run. Bounds are the caller's
// responsibility: 0 ≤ r < rows, 0 ≤ c0 ≤ c1 ≤ cols.
func (f *Flat) CellRange(r, c0, c1 int32) (start, end int32) {
	base := r * f.cols
	return f.cellStart[base+c0], f.cellStart[base+c1]
}

// CellCount returns the number of points in cell (r, c).
func (f *Flat) CellCount(r, c int32) int32 {
	i := r*f.cols + c
	return f.cellStart[i+1] - f.cellStart[i]
}

// SlotID maps a grid slot back to the caller's index space.
func (f *Flat) SlotID(s int32) int32 { return f.ids[s] }

// SlotCoords returns the grid-sorted coordinates at slot s.
func (f *Flat) SlotCoords(s int32) (x, y float64) { return f.xs[s], f.ys[s] }

// Reach returns the cell reach of an ε-search: how many cells per
// direction the scanned block extends around the query's cell,
// ⌈eps/side⌉ clamped to the grid's own extent.
func (f *Flat) Reach(eps float64) int32 {
	if !(eps > 0) || f.cols == 0 {
		return 0
	}
	r := math.Ceil(eps / f.side)
	if lim := math.Max(float64(f.cols), float64(f.rows)); r > lim {
		r = lim
	}
	return int32(r)
}

// TileView is one tile of the grid: an owned cell rectangle plus its
// ε-halo. Views alias the Flat's arrays (nothing is copied) and are
// read-only, so any number may search concurrently.
type TileView struct {
	f     *Flat
	owned CellRect
	halo  CellRect
}

// Tile builds the view for an owned cell rectangle at search radius eps.
// The halo is the owned rectangle expanded by Reach(eps) cells per
// direction, clamped to the grid.
func (f *Flat) Tile(owned CellRect, eps float64) TileView {
	reach := f.Reach(eps)
	halo := CellRect{
		C0: max(0, owned.C0-reach),
		R0: max(0, owned.R0-reach),
		C1: min(f.cols, owned.C1+reach),
		R1: min(f.rows, owned.R1+reach),
	}
	return TileView{f: f, owned: owned, halo: halo}
}

// Owned returns the view's owned cell rectangle.
func (v *TileView) Owned() CellRect { return v.owned }

// Halo returns the view's ε-expanded cell rectangle.
func (v *TileView) Halo() CellRect { return v.halo }

// OwnedPoints returns the number of points in the owned rectangle.
func (v *TileView) OwnedPoints() int {
	n := 0
	v.OwnedRuns(func(start, end int32) { n += int(end - start) })
	return n
}

// OwnedRuns calls yield once per non-empty grid row of the owned
// rectangle with the half-open slot range of that row's owned cells.
// Runs are disjoint and ascending; across a partition's tiles they
// cover every slot exactly once.
func (v *TileView) OwnedRuns(yield func(start, end int32)) {
	for r := v.owned.R0; r < v.owned.R1; r++ {
		s, e := v.f.CellRange(r, v.owned.C0, v.owned.C1)
		if s < e {
			yield(s, e)
		}
	}
}

// EpsSearch is Flat.EpsSearch restricted to the view: the scanned cell
// block is clamped to the halo rectangle instead of the whole grid. For
// query points inside an owned cell the block already lies within the
// halo, so the result — neighbors, candidate count, cells visited — is
// identical to the full-grid search; the clamp enforces the sub-view
// boundary for any other query.
func (v *TileView) EpsSearch(p geom.Point, eps float64, dst []int32) (out []int32, candidates, nodesVisited int) {
	f := v.f
	if len(f.ids) == 0 || !(eps >= 0) {
		return dst, 0, 0
	}
	reach := math.Ceil(eps / f.side)
	fc := math.Floor((p.X - f.originX) / f.side)
	fr := math.Floor((p.Y - f.originY) / f.side)
	c0, c1, ok := clampSpan(fc-reach, fc+reach, f.cols)
	if !ok {
		return dst, 0, 0
	}
	r0, r1, ok := clampSpan(fr-reach, fr+reach, f.rows)
	if !ok {
		return dst, 0, 0
	}
	c0, r0 = max(c0, v.halo.C0), max(r0, v.halo.R0)
	c1, r1 = min(c1, v.halo.C1-1), min(r1, v.halo.R1-1)
	if c0 > c1 || r0 > r1 {
		return dst, 0, 0
	}
	epsSq := eps * eps
	xs, ys, ids, cellStart := f.xs, f.ys, f.ids, f.cellStart
	for r := r0; r <= r1; r++ {
		base := r * f.cols
		start := cellStart[base+c0]
		end := cellStart[base+c1+1]
		candidates += int(end - start)
		dst = kernel.FilterEpsIDs(dst,
			xs[start:end:end], ys[start:end:end], ids[start:end:end],
			p.X, p.Y, epsSq)
	}
	nodesVisited = int(r1-r0+1) * int(c1-c0+1)
	return dst, candidates, nodesVisited
}
