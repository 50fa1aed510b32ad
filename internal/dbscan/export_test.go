package dbscan

import (
	"context"
	"slices"

	"vdbscan/internal/gridindex"
)

// What the external tests of package dbscan_test, which import
// internal/sched and so cannot be in package dbscan, read of its insides.

// Blobs is blobs.
var Blobs = blobs

// CellSide is cellSide.
var CellSide = cellSide

// Kept is one cell decomposition an index keeps.
type Kept struct {
	Grid *gridindex.Flat // nil until a run builds it
	Runs int             // runs of occupied cells
}

// KeptCells returns the cell decompositions ix keeps, by side. Call it
// with no run in flight: it reads the entries without their Once.
func KeptCells(ix *Index) map[float64]Kept {
	ix.cellsMu.Lock()
	defer ix.cellsMu.Unlock()
	out := make(map[float64]Kept, len(ix.cells))
	for side, e := range ix.cells {
		var k Kept
		if e.c != nil {
			k = Kept{e.c.Flat, len(e.c.runStart)}
		}
		out[side] = k
	}
	return out
}

// LinkState returns copies of l's core flags and union-find parents.
func LinkState(l *Link) (core []uint32, parents []int32) {
	parents = make([]int32, l.s.dsu.Len())
	for i := range parents {
		parents[i] = l.s.dsu.Parent(int32(i))
	}
	return slices.Clone(l.s.core), parents
}

// CountdownCtx returns a context whose Err reports cancellation from its
// nth call on.
func CountdownCtx(n int64) context.Context {
	return &countdownCtx{Context: context.Background(), after: n}
}
