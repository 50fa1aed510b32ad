// Package tiling partitions a frozen cell grid (gridindex.Flat) into a
// set of rectangular tiles — the middle level of the variant → tile →
// chunk parallelism hierarchy. A partition covers every grid cell
// exactly once, so each point has exactly one owning tile; the tiled
// DBSCAN runner's workers claim whole tiles (see internal/dbscan).
//
// Two partitioners compete per build, and the better-balanced one wins:
//
//   - regular N×N: the grid rectangle is cut into N point-balanced
//     column spans × N point-balanced row spans (marginal balancing —
//     cheap, and ideal for uniform-ish data);
//   - kd-split: the rectangle is cut recursively along its longer axis
//     at the cell boundary that best splits the point count, which
//     tracks density skew the marginal cuts cannot (the structure of
//     Wang/Gu/Shun's grid-cell decomposition).
//
// Balance is measured as the maximum owned-point count over tiles; the
// point counts behind both partitioners come from one summed-area table
// over the grid's CSR cell counts, so every candidate cut costs O(1).
package tiling

import (
	"vdbscan/internal/gridindex"
)

// MinTilePoints is the auto-mode floor on the expected points per tile:
// below it, per-tile fixed costs (view setup) outweigh the parallelism a
// tile buys.
const MinTilePoints = 4096

// Auto picks a tile-count target for n points on workers goroutines: one
// tile per worker, capped so the expected tile keeps MinTilePoints, and
// 1 (untiled) when the data or the worker pool is too small to shard.
func Auto(n, workers int) int {
	if workers <= 1 || n < 4*MinTilePoints {
		return 1
	}
	t := workers
	if cap := n / MinTilePoints; t > cap {
		t = cap
	}
	if t < 2 {
		return 1
	}
	return t
}

// Partition is an immutable tiling of one grid snapshot. Build it with
// Build; all methods are safe for concurrent use.
type Partition struct {
	grid   *gridindex.Flat
	tiles  []gridindex.CellRect
	counts []int  // per-tile owned point counts
	kind   string // winning partitioner: "regular" or "kd"
}

// Build partitions g's cell rectangle into (up to) target tiles. It
// returns nil when tiling is not applicable: a nil or empty grid, a
// target below 2, or a grid too small to yield at least two non-trivial
// tiles. The returned partition is tied to the grid snapshot it was
// built from — rebuild after any EnsureGrid re-side or re-freeze.
func Build(g *gridindex.Flat, target int) *Partition {
	if g == nil || target < 2 || g.Len() == 0 {
		return nil
	}
	cols, rows := g.Shape()
	if int(cols)*int(rows) < 2 {
		return nil
	}
	s := newSAT(g)
	full := gridindex.CellRect{C0: 0, R0: 0, C1: cols, R1: rows}

	var kd []gridindex.CellRect
	kdSplit(s, full, target, &kd)
	tiles, kind := kd, "kd"

	if k := isqrt(target); k >= 2 && k*k == target {
		if reg := s.regular(full, k); len(reg) >= 2 && s.maxTile(reg) <= s.maxTile(kd) {
			tiles, kind = reg, "regular"
		}
	}
	if len(tiles) < 2 {
		return nil
	}

	p := &Partition{grid: g, tiles: tiles, kind: kind}
	p.counts = make([]int, len(tiles))
	for t, rect := range tiles {
		p.counts[t] = int(s.sum(rect))
	}
	return p
}

// Grid returns the grid snapshot the partition was built from.
func (p *Partition) Grid() *gridindex.Flat { return p.grid }

// Len returns the number of tiles.
func (p *Partition) Len() int { return len(p.tiles) }

// Tiles returns the owned cell rectangles. Read-only.
func (p *Partition) Tiles() []gridindex.CellRect { return p.tiles }

// Counts returns the per-tile owned point counts. Read-only.
func (p *Partition) Counts() []int { return p.counts }

// Kind reports which partitioner won: "regular" or "kd".
func (p *Partition) Kind() string { return p.kind }

// MaxTilePoints returns the largest owned point count over tiles — the
// balance figure the partitioner choice minimized.
func (p *Partition) MaxTilePoints() int {
	m := 0
	for _, c := range p.counts {
		if c > m {
			m = c
		}
	}
	return m
}

// sat is a summed-area table over the grid's per-cell point counts:
// rectangle point counts in O(1).
type sat struct {
	cols, rows int32
	v          []int64 // (rows+1)×(cols+1), v[r][c] = points in [0,r)×[0,c)
}

func newSAT(g *gridindex.Flat) *sat {
	cols, rows := g.Shape()
	s := &sat{cols: cols, rows: rows, v: make([]int64, int(rows+1)*int(cols+1))}
	w := int(cols) + 1
	for r := int32(0); r < rows; r++ {
		base := (int(r) + 1) * w
		prev := int(r) * w
		for c := int32(0); c < cols; c++ {
			s.v[base+int(c)+1] = int64(g.CellCount(r, c)) +
				s.v[prev+int(c)+1] + s.v[base+int(c)] - s.v[prev+int(c)]
		}
	}
	return s
}

// sum returns the point count inside rect.
func (s *sat) sum(r gridindex.CellRect) int64 {
	if r.Empty() {
		return 0
	}
	w := int(s.cols) + 1
	return s.v[int(r.R1)*w+int(r.C1)] - s.v[int(r.R0)*w+int(r.C1)] -
		s.v[int(r.R1)*w+int(r.C0)] + s.v[int(r.R0)*w+int(r.C0)]
}

// maxTile returns the largest point count over a tile set.
func (s *sat) maxTile(tiles []gridindex.CellRect) int64 {
	var m int64
	for _, t := range tiles {
		if n := s.sum(t); n > m {
			m = n
		}
	}
	return m
}

// regular cuts rect into k point-balanced column spans × k point-balanced
// row spans. Spans are balanced marginally (per axis, independent of the
// other), so heavy density skew can leave hot corner tiles — that is what
// the kd competitor is for.
func (s *sat) regular(rect gridindex.CellRect, k int) []gridindex.CellRect {
	colCuts := s.cuts(rect, true, k)
	rowCuts := s.cuts(rect, false, k)
	tiles := make([]gridindex.CellRect, 0, (len(colCuts)-1)*(len(rowCuts)-1))
	for ri := 0; ri+1 < len(rowCuts); ri++ {
		for ci := 0; ci+1 < len(colCuts); ci++ {
			tiles = append(tiles, gridindex.CellRect{
				C0: colCuts[ci], R0: rowCuts[ri],
				C1: colCuts[ci+1], R1: rowCuts[ri+1],
			})
		}
	}
	return tiles
}

// cuts returns the ascending cut positions (including both borders) that
// split rect into up to k spans of roughly equal point count along one
// axis. Fewer spans come back when the axis has fewer cells than k.
func (s *sat) cuts(rect gridindex.CellRect, columns bool, k int) []int32 {
	lo, hi := rect.R0, rect.R1
	if columns {
		lo, hi = rect.C0, rect.C1
	}
	total := s.sum(rect)
	cuts := []int32{lo}
	last := lo
	for j := 1; j < k; j++ {
		want := total * int64(j) / int64(k)
		c := s.searchCut(rect, columns, want)
		if c <= last {
			c = last + 1
		}
		if c >= hi {
			break
		}
		cuts = append(cuts, c)
		last = c
	}
	return append(cuts, hi)
}

// searchCut finds the smallest cut position whose left span holds at
// least want points (binary search over the monotone prefix).
func (s *sat) searchCut(rect gridindex.CellRect, columns bool, want int64) int32 {
	lo, hi := rect.R0, rect.R1
	if columns {
		lo, hi = rect.C0, rect.C1
	}
	left := func(c int32) int64 {
		r := rect
		if columns {
			r.C1 = c
		} else {
			r.R1 = c
		}
		return s.sum(r)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if left(mid) < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// kdSplit recursively cuts rect into t tiles: split along the longer
// axis at the cell boundary closest to a ⌊t/2⌋:⌈t/2⌉ point split, then
// recurse. A rectangle too small to cut is emitted as a single tile
// (absorbing its remaining share of t).
func kdSplit(s *sat, rect gridindex.CellRect, t int, out *[]gridindex.CellRect) {
	for {
		if t <= 1 || rect.Cells() <= 1 {
			*out = append(*out, rect)
			return
		}
		w, h := rect.C1-rect.C0, rect.R1-rect.R0
		columns := w >= h
		if w <= 1 {
			columns = false
		} else if h <= 1 {
			columns = true
		}
		t1 := t / 2
		total := s.sum(rect)
		want := total * int64(t1) / int64(t)
		cut := s.searchCut(rect, columns, want)
		// Snap inside the open interval; prefer the neighbor closer to
		// the target split when both bracket it.
		lo, hi := rect.R0, rect.R1
		if columns {
			lo, hi = rect.C0, rect.C1
		}
		if cut <= lo {
			cut = lo + 1
		}
		if cut >= hi {
			cut = hi - 1
		}
		var leftR, rightR gridindex.CellRect
		if columns {
			leftR = gridindex.CellRect{C0: rect.C0, R0: rect.R0, C1: cut, R1: rect.R1}
			rightR = gridindex.CellRect{C0: cut, R0: rect.R0, C1: rect.C1, R1: rect.R1}
		} else {
			leftR = gridindex.CellRect{C0: rect.C0, R0: rect.R0, C1: rect.C1, R1: cut}
			rightR = gridindex.CellRect{C0: rect.C0, R0: cut, C1: rect.C1, R1: rect.R1}
		}
		kdSplit(s, leftR, t1, out)
		rect, t = rightR, t-t1
	}
}

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	k := 1
	for (k+1)*(k+1) <= n {
		k++
	}
	return k
}
