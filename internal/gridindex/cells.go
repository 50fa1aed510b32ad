package gridindex

import (
	"math"

	"vdbscan/internal/kernel"
)

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
// never discard a point that has a partner within ε. CountNear widens its
// row clip by the same factor.
const pruneSlack = 1 + 1e-7

// PairWithin reports whether some point of cell (ra, ca) lies within eps
// of some point of cell (rb, cb): the bichromatic closest-pair decision
// that connects two all-core cells in cell-major DBSCAN. The first cell's
// points are scanned from its side nearer the second cell: from the last
// slot to the first when the second cell lies in a later row, in slot order
// otherwise — a cell's slots run in index order, which the bin order makes
// nearly y-ascending, so a later row's closest points come last. A point
// farther than eps from the second cell's rectangle is skipped after that
// one test; the others are compared with the second cell's points in slot
// order, and the scan stops at the first pair within eps. tests counts the
// rectangle and pair tests made up to that pair — a function of the two
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
	s, step := a0, int32(1)
	if rb > ra {
		s, step = a1-1, -1
	}
	for ; s >= a0 && s < a1; s += step {
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

// PairWithinCore is PairWithin restricted to flagged points: with onlyA
// set, a point of the first cell takes part only when core[id] is nonzero
// for its id, and with onlyB the same holds for the second cell. Scan
// order, prune and pair expression are PairWithin's; tests counts the
// rectangle and pair tests made on the points that take part, so a skipped
// point costs none. The flags read must not change while the test runs.
// Two dense cells keep PairWithin, whose inner loop has no flag to test.
func (f *Flat) PairWithinCore(ra, ca, rb, cb int32, eps float64, core []uint32, onlyA, onlyB bool) (within bool, tests int) {
	a0, a1 := f.CellRange(ra, ca, ca+1)
	b0, b1 := f.CellRange(rb, cb, cb+1)
	if a0 == a1 || b0 == b1 {
		return false, 0
	}
	bx0, bx1 := float64(cb)*f.side, float64(cb+1)*f.side
	by0, by1 := float64(rb)*f.side, float64(rb+1)*f.side
	epsSq := eps * eps
	pruneSq := epsSq * pruneSlack
	bxs, bys, bids := f.xs[b0:b1], f.ys[b0:b1:b1], f.ids[b0:b1:b1]
	s, step := a0, int32(1)
	if rb > ra {
		s, step = a1-1, -1
	}
	for ; s >= a0 && s < a1; s += step {
		if onlyA && core[f.ids[s]] == 0 {
			continue
		}
		ax, ay := f.xs[s], f.ys[s]
		rx, ry := ax-f.originX, ay-f.originY
		gx := max(bx0-rx, rx-bx1, 0)
		gy := max(by0-ry, ry-by1, 0)
		tests++
		if gx*gx+gy*gy > pruneSq {
			continue
		}
		for t, bx := range bxs {
			if onlyB && core[bids[t]] == 0 {
				continue
			}
			tests++
			if dx, dy := ax-bx, ay-bys[t]; dx*dx+dy*dy <= epsSq {
				return true, tests
			}
		}
	}
	return false, tests
}

// CountNear appends to dst the ids of the points within eps of slot s's
// point and returns the grown slice, the candidates distance-checked and
// the cells scanned. It scans the rows of the block around the point's
// cell nearest first — its own row, then one below and one above, then two
// of each, out to ⌈eps/Side⌉ — each row clipped to the columns the
// eps-disk reaches, with one kernel call over the row's slot run, and
// stops after the first row that leaves stop or more ids appended. A scan
// that does not stop early has appended the whole ε-neighbourhood: the
// set EpsSearch finds, in another order. The clip is taken in cell units
// through the cell assignment's own arithmetic and widened by pruneSlack,
// so it never drops a point within eps.
func (f *Flat) CountNear(s int32, eps float64, stop int, dst []int32) (out []int32, candidates, nodes int) {
	x, y := f.xs[s], f.ys[s]
	fx := cellOffset(x, f.originX, f.side)
	fy := cellOffset(y, f.originY, f.side)
	col := min(int32(fx), f.cols-1)
	row := min(int32(fy), f.rows-1)
	e := eps / f.side
	reachSq := e * e * pruneSlack
	reach := int32(math.Ceil(e))
	epsSq := eps * eps
	stop += len(dst)
	for d := int32(0); d <= 2*reach; d++ {
		dr := (d + 1) / 2
		if d%2 == 1 {
			dr = -dr
		}
		r := row + dr
		if r < 0 || r >= f.rows {
			continue
		}
		var gap float64 // from the point to row r's strip, in cells
		if dr > 0 {
			gap = float64(r) - fy
		} else if dr < 0 {
			gap = fy - float64(r+1)
		}
		if gap*gap > reachSq {
			continue
		}
		half := math.Sqrt(reachSq - gap*gap)
		c0 := max(col-reach, 0, int32(math.Floor(fx-half)))
		c1 := min(col+reach, f.cols-1, int32(math.Floor(fx+half)))
		if c0 > c1 {
			continue
		}
		start, end := f.CellRange(r, c0, c1+1)
		candidates += int(end - start)
		nodes += int(c1 - c0 + 1)
		dst = kernel.FilterEpsIDs(dst, f.xs[start:end:end], f.ys[start:end:end], f.ids[start:end:end], x, y, epsSq)
		if len(dst) >= stop {
			break
		}
	}
	return dst, candidates, nodes
}
