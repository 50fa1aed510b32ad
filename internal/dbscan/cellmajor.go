package dbscan

import (
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
)

// Cell-major DBSCAN over the ε/√2 cell decomposition
// (Index.cellDecomposition), after de Berg, Gunawan & Roeloffzen ("Faster
// DBSCAN and HDBSCAN in Low-Dimensional Euclidean Spaces") and Wang, Gu &
// Shun. Any two points of one cell are within ε of each other, so a cell
// holding at least MinPts points — a dense cell — is all-core and one
// cluster by counting alone. Two parallel passes with a barrier between
// them, both over the same division of the cells into work units:
//
//   - mark: every dense cell publishes its points' core flags and unions
//     them into one set. No distance is computed.
//   - link: a dense cell tests each dense cell among the 12 forward ones of
//     its 5×5 block (two points within ε are at most two cells apart per
//     axis; each unordered cell pair is met once, from its earlier cell)
//     with one early-exit closest-pair scan and unions the two sets when a
//     pair lies within ε. A point of a sparse cell runs the point-major
//     pass's ε-search and onePass.consume unchanged: the barrier has
//     published every dense flag, so a sparse–dense core edge is linked
//     from its sparse end, and consume's store-then-load order still covers
//     sparse–sparse edges. The search goes through whichever of the two
//     grids scans the smaller block for this ε: the search grid's 3×3 when
//     it was sized for this very ε, the decomposition's 5×5 when the search
//     grid was sized for a sweep's larger maximum.
//
// The core set and the core-connectivity components are the ones Run finds,
// so labelCores and attachBorders produce Run's bytes. The work counters
// are a function of the input alone: searches are counted for sparse-cell
// points only, every closest-pair and rectangle test is a candidate, every
// cell pair tested is a node — whichever worker does it, in any order. That
// is why link does not skip a cell pair the union-find already shows as
// joined: what Find returns mid-pass depends on the schedule.

// spans calls yield once per row span — cells [c0, c1) of row r — of work
// unit u.
type spans func(u int, yield func(r, c0, c1 int32))

// chunkSpans is the untiled division of the cells: runs of consecutive
// cells in row-major order, sized so that a run averages parallelChunk
// points.
func chunkSpans(g *gridindex.Flat) (int, spans) {
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

// cellPasses returns the mark and link passes over a division of g's cells.
func (s *onePass) cellPasses(ix *Index, g *gridindex.Flat, eps float64, units int, sp spans) []pass {
	search := g // the grid the sparse cells' points are ε-searched in
	if sg := ix.Grid(); sg.BlockSide(eps) < g.BlockSide(eps) {
		search = sg
	}
	return []pass{
		{units, func(u int, _ *passWorker) {
			sp(u, func(r, c0, c1 int32) { s.markDense(g, r, c0, c1) })
		}},
		{units, func(u int, w *passWorker) {
			sp(u, func(r, c0, c1 int32) { s.linkCells(g, search, eps, r, c0, c1, w) })
		}},
	}
}

// markDense publishes the dense cells among row r's cells [c0, c1).
func (s *onePass) markDense(g *gridindex.Flat, r, c0, c1 int32) {
	if lo, hi := g.CellRange(r, c0, c1); hi-lo < int32(s.minPts) {
		return // not even the whole span holds MinPts points
	}
	for c := c0; c < c1; c++ {
		lo, hi := g.CellRange(r, c, c+1)
		if hi-lo < int32(s.minPts) {
			continue
		}
		first := g.SlotID(lo)
		for slot := lo; slot < hi; slot++ {
			id := g.SlotID(slot)
			s.core[id].Store(true)
			s.dsu.Union(first, id)
		}
	}
}

// linkCells links the dense cells among row r's cells [c0, c1) to their
// dense forward neighbours and searches the points of the sparse ones.
func (s *onePass) linkCells(g, search *gridindex.Flat, eps float64, r, c0, c1 int32, w *passWorker) {
	if lo, hi := g.CellRange(r, c0, c1); lo == hi {
		return
	}
	cols, rows := g.Shape()
	minPts := int32(s.minPts)
	for c := c0; c < c1; c++ {
		lo, hi := g.CellRange(r, c, c+1)
		if hi-lo < minPts {
			for slot := lo; slot < hi; slot++ {
				x, y := g.SlotCoords(slot)
				var cand, nodes int
				w.scratch, cand, nodes = search.EpsSearch(geom.Point{X: x, Y: y}, eps, w.scratch[:0])
				w.local.NeighborSearches++
				w.local.CandidatesExamined += int64(cand)
				w.local.NodesVisited += int64(nodes)
				w.local.NeighborsFound += int64(len(w.scratch))
				w.arena = s.consume(g.SlotID(slot), w.scratch, w.arena)
			}
			continue
		}
		first := g.SlotID(lo)
		for rb := r; rb <= min(r+2, rows-1); rb++ {
			cb := max(c-2, 0)
			if rb == r {
				cb = c + 1
			}
			for ; cb <= min(c+2, cols-1); cb++ {
				blo, bhi := g.CellRange(rb, cb, cb+1)
				if bhi-blo < minPts {
					continue
				}
				within, tests := g.PairWithin(r, c, rb, cb, eps)
				w.local.NodesVisited++
				w.local.CandidatesExamined += int64(tests)
				if within {
					s.dsu.Union(first, g.SlotID(blo))
				}
			}
		}
	}
}
