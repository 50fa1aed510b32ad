package dbscan

import (
	"slices"

	"vdbscan/internal/gridindex"
)

// Cell-major DBSCAN over the ε/√2 cell decomposition
// (Index.cellDecomposition), after de Berg, Gunawan & Roeloffzen ("Faster
// DBSCAN and HDBSCAN in Low-Dimensional Euclidean Spaces") and Wang, Gu &
// Shun. Any two points of one cell are within ε of each other, so the
// cores of one cell are one cluster, and a cell holding at least MinPts
// points is all-core by counting alone. A cell of k points is in one of
// two classes, fixed by k and MinPts (onePass.class):
//
//   - dense, k ≥ MinPts: all-core, no distance computed;
//   - counted, k < MinPts: each point counts its neighbours only until it
//     has MinPts of them.
//
// No core is unioned with its neighbours one by one: the cores of both
// classes are linked by cell-pair tests. Four parallel passes with a
// barrier after each, all over the same division of the cells into work
// units, each unit's row spans cut to the runs of occupied cells
// (cellGrid.occupied), so no pass visits an empty cell:
//
//   - mark: a dense cell publishes its points' core flags and attaches them
//     under its minimum id as one set, without a Find or a CAS. A counted
//     cell's point scans the 5×5 block one row at a time, nearest rows
//     first, each row clipped to the ε-disk, and stops at MinPts neighbours
//     (gridindex.Flat.CountNear). A core one is flagged and attached under
//     the cell's first core; a non-core one has seen its whole
//     neighbourhood and records it as consume does. A point of the run's
//     seed — core at a smaller ε and a MinPts no smaller, so core here —
//     is flagged and attached without counting.
//   - near: a cell that holds a core tests each cell holding a core among
//     its four forward neighbours at Chebyshev offset 1 with one early-exit
//     closest-pair scan — gridindex.Flat.PairWithin between two dense
//     cells, PairWithinCore restricted to a counted side's cores otherwise —
//     and unions the two cells' sets when a pair lies within ε. It also
//     writes the cell's core set into a table of one int32 per cell, 4 B
//     per cell: no more than the grid's own CSR offsets, and dropped with
//     the run's passes, so a Link does not hold it.
//   - snapshot: each entry of the table becomes its set's root.
//   - far: a cell with a root tests each of its eight forward neighbours at
//     Chebyshev offset 2 that has a root too, as near does, unless the two
//     roots are the same. The table is all the pass reads of the
//     union-find, and a cell's count and points are read only for a pair
//     it tests.
//
// Two points within ε are at most two cells apart per axis, so the twelve
// forward cells of the 5×5 block meet every unordered cell pair once, from
// its earlier cell, and every core–core edge is linked: an edge inside one
// cell is that cell's set, and any other edge joins two cells within each
// other's 5×5 block, a pair near tests or a far pair that far either tests
// or skips because its two sets were already one. So the core set and the
// core-connectivity components are the ones Run finds, labelCores and
// attachBorders produce Run's bytes, and a chain successor replays the
// head's records as from any other head: a counted core stays core at
// every smaller MinPts, and a counted non-core point recorded its whole
// neighbourhood.
//
// The work counters are a function of the input and the seed alone. A
// seeded point of a counted cell is one reused point and nothing else; any
// other counted point is one ε-search, whose candidates and cells are the
// ones it scanned up to the row where it reached MinPts; every rectangle
// and pair test a closest-pair scan makes up to its first pair within ε is
// a candidate; every cell pair tested is a node — whichever worker does it,
// in any order. The flags a pair test reads are final at the first
// barrier. Near tests every pair: what Find returns mid-pass depends on the
// schedule. Far skips a pair by the snapshot alone, and the snapshot is
// schedule-free: by the barrier before it the near pass has made every
// union it will make, which are the within-ε near pairs, so the components
// are the input's; and ConcurrentDSU links by index, so each root is its
// component's minimum member. Which far pairs are tested, and what they
// bill, is therefore the same at every width, tiled or not.

// spans calls yield once per row span — cells [c0, c1) of row r — of work
// unit u.
type spans func(u int, yield func(r, c0, c1 int32))

// chunkSpans is the untiled division of the cells: runs of consecutive
// cells in row-major order, sized so that a run averages parallelChunk
// points.
func chunkSpans(g *cellGrid) (int, spans) {
	cols, rows := g.Shape()
	cells := int(cols) * int(rows)
	per := max(1, cells/max(1, g.Len()/parallelChunk))
	return (cells + per - 1) / per, func(u int, yield func(r, c0, c1 int32)) {
		lo, hi := u*per, min((u+1)*per, cells)
		for lo < hi {
			r, c0 := int32(lo/int(cols)), int32(lo%int(cols))
			c1 := min(cols, c0+int32(hi-lo))
			yield(r, c0, c1)
			lo += int(c1 - c0)
		}
	}
}

// cellClass is how a pass treats a cell; it depends on the cell's count
// and MinPts alone.
type cellClass uint8

const (
	counted cellClass = iota // each point counted to MinPts, cores linked by cell pairs
	dense                    // all-core by count, linked by cell pairs
)

// class returns the class of a cell holding k points.
func (s *onePass) class(k int32) cellClass {
	if int(k) >= s.minPts {
		return dense
	}
	return counted
}

// occupiedRuns returns g's occupied cells as maximal runs of adjacent
// non-empty cells within one row, in row-major order: run k is cells
// [start[k], end[k]) of the row-major numbering. They cost 8 B per run, and
// there is at most one run per occupied cell.
func occupiedRuns(g *gridindex.Flat) (start, end []int32) {
	cols, rows := g.Shape()
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			if g.CellCount(r, c) == 0 {
				continue
			}
			if i := r*cols + c; c > 0 && len(end) > 0 && end[len(end)-1] == i {
				end[len(end)-1]++
			} else {
				start, end = append(start, i), append(end, i+1)
			}
		}
	}
	return start, end
}

// occupied calls yield once per run of occupied cells among row r's cells
// [c0, c1), clipped to them.
func (g *cellGrid) occupied(r, c0, c1 int32, yield func(r, c0, c1 int32)) {
	cols, _ := g.Shape()
	base := r * cols
	lo, hi := base+c0, base+c1
	k, _ := slices.BinarySearch(g.runEnd, lo+1) // the first run ending past lo
	for ; k < len(g.runEnd) && g.runStart[k] < hi; k++ {
		yield(r, max(g.runStart[k], lo)-base, min(g.runEnd[k], hi)-base)
	}
}

// cellPasses returns the mark, near, snapshot and far passes over a
// division of g's cells. A point with no cell (a non-finite coordinate) has
// no neighbour; it is recorded as such up front, and attachBorders makes it
// Noise.
func (s *onePass) cellPasses(g *cellGrid, eps float64, seed CoreSet, units int, sp spans) []pass {
	if out := g.Unplaced(); len(out) > 0 {
		arena := make([]int32, 0, 2*len(out))
		for _, id := range out {
			arena = append(arena, id, 0)
		}
		s.borders = append(s.borders, arena)
	}
	cols, rows := g.Shape()
	roots := make([]int32, int(cols)*int(rows)) // the snapshot, by cell
	each := func(f func(r, c0, c1 int32, w *passWorker)) pass {
		return pass{units, func(u int, w *passWorker) {
			sp(u, func(r, c0, c1 int32) {
				g.occupied(r, c0, c1, func(r, c0, c1 int32) { f(r, c0, c1, w) })
			})
		}}
	}
	f := g.Flat
	return []pass{
		each(func(r, c0, c1 int32, w *passWorker) { s.markCells(f, eps, seed, r, c0, c1, w) }),
		each(func(r, c0, c1 int32, w *passWorker) { s.linkNear(f, roots, eps, r, c0, c1, w) }),
		each(func(r, c0, c1 int32, _ *passWorker) { s.snapshotRoots(f, roots, r, c0, c1) }),
		each(func(r, c0, c1 int32, w *passWorker) { s.linkFar(f, roots, eps, r, c0, c1, w) }),
	}
}

// markCells settles the core status of row r's cells [c0, c1) and makes
// each cell's cores one set. A dense cell's points are all core and attach
// to its first. A counted cell's point counts its neighbours
// (gridindex.Flat.CountNear) only until it has MinPts of them; a core one
// attaches to the cell's first core, a non-core one has counted its whole
// neighbourhood and records it as consume would. The mark pass runs first,
// on fresh flags and a fresh union-find, and a cell belongs to exactly one
// work unit, so no other worker reads or writes a point's flag or parent
// before the barrier: plain stores do, and every point attached is still a
// singleton. Freeze's scatter is stable, so a cell's slots hold its ids in
// ascending order and its first point, or first core, is the minimum of its
// set — Attach's precondition. A point of a seeded run's seed is core
// without counting and bills one reused point instead of a search.
func (s *onePass) markCells(g *gridindex.Flat, eps float64, seed CoreSet, r, c0, c1 int32, w *passWorker) {
	for c := c0; c < c1; c++ {
		lo, hi := g.CellRange(r, c, c+1)
		if s.class(hi-lo) == dense {
			first := g.SlotID(lo)
			for slot := lo; slot < hi; slot++ {
				id := g.SlotID(slot)
				s.core[id] = 1
				s.dsu.Attach(id, first)
			}
			continue
		}
		first := int32(-1)
		for slot := lo; slot < hi; slot++ {
			id := g.SlotID(slot)
			if seed != nil && seed.Has(id) {
				w.local.PointsReused++
			} else {
				var cand, nodes int
				w.scratch, cand, nodes = g.CountNear(slot, eps, s.minPts, w.scratch[:0])
				w.local.NeighborSearches++
				w.local.CandidatesExamined += int64(cand)
				w.local.NodesVisited += int64(nodes)
				w.local.NeighborsFound += int64(len(w.scratch))
				if len(w.scratch) < s.minPts {
					w.arena = s.consume(id, w.scratch, w.arena) // records it
					continue
				}
			}
			if first < 0 {
				s.core[id], first = 1, id
			} else {
				s.core[id] = 1
				s.dsu.Attach(id, first)
			}
		}
	}
}

// linkNear links the cells among row r's cells [c0, c1) that hold a core to
// their offset-1 forward cells that hold one. It writes rep + 1 into the
// roots entry of each cell that holds a core; every other cell's entry
// stays 0.
func (s *onePass) linkNear(g *gridindex.Flat, roots []int32, eps float64, r, c0, c1 int32, w *passWorker) {
	cols, rows := g.Shape()
	for c := c0; c < c1; c++ {
		lo, hi := g.CellRange(r, c, c+1)
		ca := s.class(hi - lo)
		rep := s.rep(g, ca, lo, hi)
		if rep < 0 {
			continue
		}
		roots[r*cols+c] = rep + 1
		for _, o := range nearOffsets {
			rb, cb := r+o[0], c+o[1]
			if rb >= rows || cb < 0 || cb >= cols {
				continue
			}
			blo, bhi := g.CellRange(rb, cb, cb+1)
			cc := s.class(bhi - blo)
			if repb := s.rep(g, cc, blo, bhi); repb >= 0 && s.pairWithin(g, eps, r, c, ca, rb, cb, cc, w) {
				s.dsu.Union(rep, repb)
			}
		}
	}
}

// nearOffsets and farOffsets are the forward cells of a cell's 5×5 block,
// as (row, column) offsets: the four at Chebyshev distance 1 and the eight
// at distance 2 that come after it in row-major order.
var (
	nearOffsets = [...][2]int32{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
	farOffsets  = [...][2]int32{{0, 2}, {1, -2}, {1, 2}, {2, -2}, {2, -1}, {2, 0}, {2, 1}, {2, 2}}
)

// snapshotRoots replaces each rep + 1 that linkNear left among row r's
// cells [c0, c1) with its set's root + 1. It runs after the near pass's
// barrier and before any far-pass union, so every Find returns its
// component's minimum member.
func (s *onePass) snapshotRoots(g *gridindex.Flat, roots []int32, r, c0, c1 int32) {
	cols, _ := g.Shape()
	for i := r*cols + c0; i < r*cols+c1; i++ {
		if v := roots[i]; v != 0 {
			roots[i] = s.dsu.Find(v-1) + 1
		}
	}
}

// linkFar links each cell among row r's cells [c0, c1) that has a snapshot
// root to its offset-2 forward cells that have one, skipping a pair whose
// roots are the same: its sets were joined before the pass began.
func (s *onePass) linkFar(g *gridindex.Flat, roots []int32, eps float64, r, c0, c1 int32, w *passWorker) {
	cols, rows := g.Shape()
	for c := c0; c < c1; c++ {
		ra := roots[r*cols+c]
		if ra == 0 {
			continue
		}
		for _, o := range farOffsets {
			rb, cb := r+o[0], c+o[1]
			if rb >= rows || cb < 0 || cb >= cols {
				continue
			}
			if rootb := roots[rb*cols+cb]; rootb != 0 && rootb != ra &&
				s.pairWithin(g, eps, r, c, s.class(g.CellCount(r, c)), rb, cb, s.class(g.CellCount(rb, cb)), w) {
				s.dsu.Union(ra-1, rootb-1)
			}
		}
	}
}

// pairWithin bills one cell-pair test — a node, and its rectangle and pair
// tests as candidates — and reports whether a core of cell (r, c), of class
// ca, lies within ε of a core of cell (rb, cb), of class cc.
func (s *onePass) pairWithin(g *gridindex.Flat, eps float64, r, c int32, ca cellClass, rb, cb int32, cc cellClass, w *passWorker) bool {
	var within bool
	var tests int
	if ca == dense && cc == dense {
		within, tests = g.PairWithin(r, c, rb, cb, eps)
	} else {
		within, tests = g.PairWithinCore(r, c, rb, cb, eps, s.core, ca == counted, cc == counted)
	}
	w.local.NodesVisited++
	w.local.CandidatesExamined += int64(tests)
	return within
}

// rep returns a point of the core set markCells made of the cell of class
// k at slots [lo, hi): a dense cell's first point, a counted cell's first
// core, or -1 for a counted cell without one, an empty cell among them.
// The flags it reads were set before the first barrier and no later store
// touches them.
func (s *onePass) rep(g *gridindex.Flat, k cellClass, lo, hi int32) int32 {
	if k == dense {
		return g.SlotID(lo)
	}
	for slot := lo; slot < hi; slot++ {
		if id := g.SlotID(slot); s.core[id] != 0 {
			return id
		}
	}
	return -1
}
