package dbscan

import (
	"fmt"

	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/rtree"
)

// FrozenParts is the complete frozen state of an Index, decomposed into
// the arrays and scalars the persistence layer serializes: the sorted
// point storage, the sorted→original permutation, T_low's leaf occupancy,
// and the flat parts of the views the index's kind keeps: an R-tree-kind
// index's T_low, a grid-kind index's cell grid. Each view is nil when
// absent; High only ever comes back in, from a file that carries T_high.
// All slices alias the index (or, on the way back in, the caller's
// file-backed memory) — the decomposition copies nothing.
type FrozenParts struct {
	Pts  []geom.Point
	X, Y []float64
	Fwd  []int
	R    int
	Kind IndexKind
	Low  *rtree.FlatParts
	High *rtree.FlatParts
	Grid *gridindex.FlatParts
}

// FrozenParts exports the index's frozen state for serialization: the
// point arrays, plus an R-tree-kind index's T_low or the cell grid a
// grid-kind index has built. No index exports T_high, which only a paper
// strategy's sweep reads and builds again, nor a grid-kind index a tree it
// built lazily: the grid serves every search it runs. Only an Index
// assembled by hand without SoA coordinates returns an error.
func (ix *Index) FrozenParts() (FrozenParts, error) {
	if len(ix.X) != len(ix.Pts) || len(ix.Y) != len(ix.Pts) {
		return FrozenParts{}, fmt.Errorf("dbscan: index has no SoA coordinate slices")
	}
	p := FrozenParts{Pts: ix.Pts, X: ix.X, Y: ix.Y, Fwd: ix.Fwd, R: ix.r, Kind: ix.Kind}
	if ix.Kind == IndexRTree {
		lp := ix.Low().Parts()
		p.Low = &lp
	}
	if g := ix.grid.Load(); g != nil {
		gp := g.Parts()
		p.Grid = &gp
	}
	return p, nil
}

// IndexFromFrozen reconstructs a servable Index around previously exported
// frozen parts, aliasing every input slice — this is the mmap load path,
// so a reconstructed index answers ε-searches straight out of file-backed
// memory with zero deserialization.
//
// Because the parts may come from an untrusted file, everything is
// validated before use — array length agreement, the Fwd permutation,
// SoA/AoS coordinate consistency, a leaf occupancy a lazy T_low can be
// built with, a grid only on a grid-kind index and covering exactly its
// points (searches trust the grid alone once it is installed), and (via the
// parts constructors) full structural validation of each view. A tree the
// parts lack is built on first use, as on an index from BuildIndex.
// Nothing writes to an Index after construction, so the aliased arrays may
// be mapped read-only.
func IndexFromFrozen(p FrozenParts) (*Index, error) {
	bad := func(format string, args ...any) (*Index, error) {
		return nil, fmt.Errorf("dbscan: invalid frozen parts: "+format, args...)
	}
	n := len(p.Pts)
	if len(p.X) != n || len(p.Y) != n || len(p.Fwd) != n {
		return bad("array lengths disagree: %d points, %d/%d coords, %d fwd", n, len(p.X), len(p.Y), len(p.Fwd))
	}
	seen := make([]bool, n)
	for i, f := range p.Fwd {
		if f < 0 || f >= n || seen[f] {
			return bad("fwd is not a permutation at %d", i)
		}
		seen[f] = true
	}
	for i := range p.Pts {
		if !sameFloat(p.Pts[i].X, p.X[i]) || !sameFloat(p.Pts[i].Y, p.Y[i]) {
			return bad("SoA coords disagree with points at %d", i)
		}
	}
	if p.R < 1 {
		return bad("leaf occupancy %d", p.R)
	}
	ix := &Index{Pts: p.Pts, X: p.X, Y: p.Y, Fwd: p.Fwd, Kind: p.Kind, r: p.R}
	for _, t := range []struct {
		parts *rtree.FlatParts
		dst   *lazyTree
	}{{p.Low, &ix.low}, {p.High, &ix.high}} {
		if t.parts == nil {
			continue
		}
		tree, err := rtree.FlatFromParts(*t.parts, p.X, p.Y, p.Pts)
		if err != nil {
			return nil, err
		}
		t.dst.get(func() *rtree.Flat { return tree })
	}
	if p.Grid != nil {
		g, err := gridindex.FlatFromParts(*p.Grid)
		if err != nil {
			return nil, err
		}
		if p.Kind != IndexGrid {
			return bad("grid section on a %v-kind index", p.Kind)
		}
		if g.Len() != n {
			return bad("grid covers %d points, index has %d", g.Len(), n)
		}
		ix.grid.Store(g)
	}
	return ix, nil
}

// sameFloat is bitwise-tolerant float equality: equal values, or both NaN.
// Plain == would reject NaN coordinates that round-trip perfectly.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }
