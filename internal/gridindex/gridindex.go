// Package gridindex provides a uniform-grid neighbor index — the classic
// alternative to the R-tree for DBSCAN ε-searches (the structure behind
// G-DBSCAN, de Berg et al.'s faster sequential DBSCAN, and most GPU
// implementations the paper surveys in §III).
//
// Points are bucketed into square cells of side ≥ ε; an ε-search inspects
// the cell block around the query point and distance-filters. Compared to
// the paper's packed R-tree:
//
//   - the grid's side is chosen at build time — a larger ε than the side
//     widens the scanned block, so one build sized for the variant set's
//     max ε serves every variant (smaller ε just filters more candidates
//     per cell);
//   - for point sets without extreme density skew the grid's O(1) cell
//     addressing and purely sequential candidate runs are hard to beat.
//
// Flat is the one layout, mirroring rtree.Flat's freeze design: coordinates
// are grid-sorted into struct-of-arrays slices with a CSR cellStart array,
// so a search touches three contiguous runs (one per cell row of the 3×3
// block) and hands each to the shared block kernel. Steady-state searches
// allocate nothing.
//
// A Flat is also read as a cell decomposition (cells.go): frozen at a side
// just under ε/√2 every two points of a cell are within ε, so cell-major
// DBSCAN (internal/dbscan) calls a cell holding MinPts points all-core from
// its CSR count alone, counts a sparser cell's points only up to MinPts
// neighbours (CountNear), and connects two cells' cores with one
// early-exit closest-pair test (PairWithin, or PairWithinCore over flagged
// points only): every pair of cells one apart, and a pair two apart only
// when the runner's union-find has not joined the two by then.
//
// Freeze caps the total cell count (MaxCells): a tiny ε over a wide
// extent coarsens the side instead of allocating cols·rows without bound.
// For searching, coarser is always correct (the scanned block adapts to
// eps/side). For the decomposition it is not — a coarsened cell no longer
// bounds its points' distances — so a caller relying on the side must check
// the one Freeze returned (Side) against the one it asked for.
package gridindex

import (
	"errors"
	"fmt"
	"math"

	"vdbscan/internal/forkjoin"
	"vdbscan/internal/geom"
	"vdbscan/internal/kernel"
)

// MaxCells caps cols·rows for any grid build. 2²¹ cells keep the CSR
// offsets array at 8 MiB worst case; builds whose requested side would
// exceed the cap coarsen the side until it fits.
const MaxCells = 1 << 21

// ErrGridTooLarge mirrors rtree.ErrFlatTooLarge: the point set exceeds
// int32 addressing, or its bounds are NaN or inverted, so no grid geometry
// can cover it.
var ErrGridTooLarge = errors.New("gridindex: point set too large or bounds non-finite for grid layout")

// gridShape picks the cell geometry for a bounding box: the number of
// columns and rows at the requested side, coarsening the side until the
// total cell count fits MaxCells. Degenerate geometry (NaN or negative
// spans, or infinite bounds) returns ErrGridTooLarge. Finite bounds whose
// span overflows to +Inf are shaped through cellOffset's half-scale
// arithmetic, like the cell assignment itself.
//
// The coarsening loop provably terminates: each step multiplies side by a
// factor > 1.001, so the iteration cap is never the binding constraint for
// well-formed inputs, and any stall (a denormal side whose product rounds
// to itself) or float overflow drops to the one-shot fallback of
// side = max(spanX, spanY) (MaxFloat64 at most), which yields at most 3×3
// cells.
func gridShape(b geom.MBB, side float64) (cols, rows int, outSide float64, err error) {
	if !(side > 0) || math.IsInf(side, 0) {
		return 0, 0, 0, fmt.Errorf("gridindex: cell side must be positive and finite, got %g", side)
	}
	spanX, spanY := b.MaxX-b.MinX, b.MaxY-b.MinY
	if !(spanX >= 0) || !(spanY >= 0) {
		return 0, 0, 0, ErrGridTooLarge
	}
	for iter := 0; iter < 64; iter++ {
		fcols := math.Floor(cellOffset(b.MaxX, b.MinX, side)) + 1
		frows := math.Floor(cellOffset(b.MaxY, b.MinY, side)) + 1
		if fcols*frows <= MaxCells { // also false for ±Inf products
			return int(fcols), int(frows), side, nil
		}
		// Coarsen just past the cap; the 1.001 margin absorbs float
		// rounding so the loop converges in one or two iterations.
		next := side * math.Sqrt(fcols*frows/float64(MaxCells)) * 1.001
		if !(next > side) || math.IsInf(next, 0) {
			break // stalled or overflowed — take the fallback
		}
		side = next
	}
	// Fallback for spans the multiplicative walk cannot reach (a denormal
	// side under a huge extent drives fcols·frows to +Inf): one cell per
	// axis span always fits.
	side = math.Max(side, math.Min(math.Max(spanX, spanY), math.MaxFloat64))
	fcols := math.Floor(cellOffset(b.MaxX, b.MinX, side)) + 1
	frows := math.Floor(cellOffset(b.MaxY, b.MinY, side)) + 1
	if !(fcols >= 1) || !(frows >= 1) || fcols*frows > MaxCells {
		return 0, 0, 0, ErrGridTooLarge
	}
	return int(fcols), int(frows), side, nil
}

// cellOffset returns (v-origin)/side, v's distance from the origin in
// cells. Where v-origin overflows — finite points more than MaxFloat64
// apart — it is taken at half scale, which is exact up to rounding and
// finite for any side gridShape lands on.
func cellOffset(v, origin, side float64) float64 {
	if d := v - origin; !math.IsInf(d, 0) {
		return d / side
	}
	return (v*0.5 - origin*0.5) / side * 2
}

// Flat is the frozen, production grid layout, the cell-grid analogue of
// rtree.Flat. Freeze grid-sorts the coordinates into struct-of-arrays
// slices and records one CSR offset per cell, so cell (r, c) owns the
// half-open slot range [cellStart[r·cols+c], cellStart[r·cols+c+1]) and a
// row of adjacent cells is ONE contiguous run — an ε-search issues a
// single block-kernel call per scanned row. The ids slice maps each grid
// slot back to the caller's index space. A Flat is immutable and safe for
// concurrent searches; steady-state searches allocate nothing.
type Flat struct {
	side      float64
	originX   float64
	originY   float64
	cols      int32
	rows      int32
	cellStart []int32 // len cols·rows+1, CSR offsets into xs/ys/ids
	xs, ys    []float64
	ids       []int32
}

// Freeze builds the flat grid over parallel coordinate slices with cells
// of the given side (coarsened to respect MaxCells). The slices are
// copied — the Flat does not alias caller memory. A point with a NaN or
// infinite coordinate gets no cell: the bounds cover the finite points
// only, and the others sit past every cell's slots (Unplaced), where no
// search reaches them. More than MaxInt32 points return ErrGridTooLarge.
//
// The build is a stable counting sort run on GOMAXPROCS workers
// (forkjoin.Width), each over a contiguous range of the points: per-range
// bounds, per-range cell counts prefixed in (cell, range) order, and a
// scatter of each range to its own offsets. Every width gives the arrays
// the sequential sort gives, points of a cell in index order.
func Freeze(x, y []float64, side float64) (*Flat, error) {
	return freezeWidth(x, y, side, forkjoin.Width(len(x)))
}

// freezeWidth is Freeze on at most w workers.
func freezeWidth(x, y []float64, side float64, w int) (*Flat, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("gridindex: coordinate slices differ in length: %d vs %d", len(x), len(y))
	}
	if int64(len(x)) > math.MaxInt32 {
		return nil, ErrGridTooLarge
	}
	if !(side > 0) || math.IsInf(side, 0) {
		return nil, fmt.Errorf("gridindex: cell side must be positive and finite, got %g", side)
	}
	n := len(x)
	bounds := make([]geom.MBB, w)
	forkjoin.Ranges(n, w, func(r, lo, hi int) {
		b := geom.EmptyMBB()
		for i := lo; i < hi; i++ {
			if geom.Finite(x[i], y[i]) {
				b = b.ExtendPoint(geom.Point{X: x[i], Y: y[i]})
			}
		}
		bounds[r] = b
	})
	b := geom.EmptyMBB()
	for _, br := range bounds {
		b = b.Union(br)
	}
	f := &Flat{side: side}
	if !b.IsEmpty() {
		cols, rows, side, err := gridShape(b, side)
		if err != nil {
			return nil, err
		}
		f.side, f.originX, f.originY = side, b.MinX, b.MinY
		f.cols, f.rows = int32(cols), int32(rows)
	}
	cells := int(f.cols) * int(f.rows)
	// Counting sort into CSR: count per cell and range, prefix-sum in
	// (cell, range) order, scatter. The unplaced points count as one extra
	// cell after the last. One count array per range costs (cells+1)·4 B;
	// at most one range per (cells+1)/4 points keeps them all within 16 B
	// per point, under the 20 B per point of the Flat's own arrays.
	w = max(1, min(w, n/((cells+1)/4+1)))
	cellOf := make([]int32, n)
	next := make([][]int32, w)
	forkjoin.Ranges(n, w, func(r, lo, hi int) {
		count := make([]int32, cells+1)
		for i := lo; i < hi; i++ {
			c := int32(cells)
			if geom.Finite(x[i], y[i]) {
				col := min(int(cellOffset(x[i], f.originX, f.side)), int(f.cols)-1)
				row := min(int(cellOffset(y[i], f.originY, f.side)), int(f.rows)-1)
				c = int32(row*int(f.cols) + col)
			}
			count[c]++
			cellOf[i] = c
		}
		next[r] = count
	})
	f.cellStart = make([]int32, cells+1)
	sum := int32(0)
	for c := 0; c <= cells; c++ {
		f.cellStart[c] = sum
		for _, count := range next {
			count[c], sum = sum, sum+count[c]
		}
	}
	f.xs = make([]float64, n)
	f.ys = make([]float64, n)
	f.ids = make([]int32, n)
	forkjoin.Ranges(n, w, func(r, lo, hi int) {
		next := next[r]
		for i := lo; i < hi; i++ {
			c := cellOf[i]
			s := next[c]
			next[c] = s + 1
			f.xs[s] = x[i]
			f.ys[s] = y[i]
			f.ids[s] = int32(i)
		}
	})
	return f, nil
}

// Unplaced returns the ids of the points that have no cell — those with a
// NaN or infinite coordinate. No search returns them. Read-only.
func (f *Flat) Unplaced() []int32 { return f.ids[f.cellStart[len(f.cellStart)-1]:] }

// Len returns the number of indexed points, Unplaced ones included.
func (f *Flat) Len() int { return len(f.ids) }

// Side returns the cell side; searches with eps ≤ Side scan the 3×3
// block, larger eps widens the block accordingly.
func (f *Flat) Side() float64 { return f.side }

// clampSpan clamps the float cell range [lo, hi] to [0, n); ok is false
// when the range misses the grid entirely (including NaN coordinates).
func clampSpan(lo, hi float64, n int32) (int32, int32, bool) {
	if !(lo < float64(n)) || !(hi >= 0) { // also rejects NaN
		return 0, 0, false
	}
	if lo < 0 {
		lo = 0
	}
	if hi > float64(n-1) {
		hi = float64(n - 1)
	}
	return int32(lo), int32(hi), true
}

// EpsSearch appends the indices (in the caller's space) of all points
// within eps of p to dst, returning the triple rtree.Flat.EpsSearch
// returns: the grown slice, candidate points distance-checked, and cells
// visited (the grid's "nodes"). The scanned block is 3×3 for eps ≤ Side
// and widens to ⌈eps/Side⌉ cells per direction beyond that, so any eps is
// answered exactly. Allocation-free once dst has warmed to its
// high-water capacity.
func (f *Flat) EpsSearch(p geom.Point, eps float64, dst []int32) (out []int32, candidates, nodesVisited int) {
	if f.cols == 0 || !(eps >= 0) {
		return dst, 0, 0
	}
	reach := math.Ceil(eps / f.side)
	fc := math.Floor(cellOffset(p.X, f.originX, f.side))
	fr := math.Floor(cellOffset(p.Y, f.originY, f.side))
	c0, c1, ok := clampSpan(fc-reach, fc+reach, f.cols)
	if !ok {
		return dst, 0, 0
	}
	r0, r1, ok := clampSpan(fr-reach, fr+reach, f.rows)
	if !ok {
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
