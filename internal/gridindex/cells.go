package gridindex

// Cell access: the frozen grid read as a CSR cell decomposition rather
// than as a search index. Because Freeze grid-sorts the coordinates, a
// cell's points are one contiguous slot range and a row of adjacent cells
// is one run, so a rectangle of cells (a tile of internal/tiling) or a
// cell-major DBSCAN pass (internal/dbscan) is pure arithmetic over the
// shared cellStart offsets — nothing is copied.

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

// pruneSlack widens the ε² a point-to-rectangle distance is held against
// in PairWithin. A point's cell comes from a rounded quotient, so it may
// sit outside its cell's nominal rectangle by a few ulps of the grid's
// extent — under 1e-9·ε with MaxCells cells — and the rectangle test must
// never discard a point that has a partner within ε.
const pruneSlack = 1 + 1e-7

// PairWithin reports whether some point of cell (ra, ca) lies within eps
// of some point of cell (rb, cb): the bichromatic closest-pair decision
// that connects two all-core cells in cell-major DBSCAN. A point of the
// first cell farther than eps from the second cell's rectangle is skipped
// after that one test; the others are compared with the second cell's
// points in slot order, and the scan stops at the first pair within eps.
// tests counts the rectangle and pair tests made — a function of the two
// cells alone. The pair test is the ε-search kernel's expression, so the
// decision agrees bit for bit with what a search from either point finds.
func (f *Flat) PairWithin(ra, ca, rb, cb int32, eps float64) (within bool, tests int) {
	a0, a1 := f.CellRange(ra, ca, ca+1)
	b0, b1 := f.CellRange(rb, cb, cb+1)
	if a0 == a1 || b0 == b1 {
		return false, 0
	}
	// The second cell's rectangle, relative to the grid origin like the
	// cell assignment itself.
	bx0, bx1 := float64(cb)*f.side, float64(cb+1)*f.side
	by0, by1 := float64(rb)*f.side, float64(rb+1)*f.side
	epsSq := eps * eps
	pruneSq := epsSq * pruneSlack
	bxs, bys := f.xs[b0:b1], f.ys[b0:b1:b1]
	for s := a0; s < a1; s++ {
		ax, ay := f.xs[s], f.ys[s]
		rx, ry := ax-f.originX, ay-f.originY
		gx := max(bx0-rx, rx-bx1, 0)
		gy := max(by0-ry, ry-by1, 0)
		tests++
		if gx*gx+gy*gy > pruneSq {
			continue
		}
		for t, bx := range bxs {
			dx, dy := ax-bx, ay-bys[t]
			if dx*dx+dy*dy <= epsSq {
				return true, tests + t + 1
			}
		}
		tests += len(bxs)
	}
	return false, tests
}
