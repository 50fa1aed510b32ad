package dbscan

import (
	"context"
	"slices"
)

// What the external tests of package dbscan_test, which import
// internal/sched and so cannot be in package dbscan, read of its insides.

// Blobs is blobs.
var Blobs = blobs

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
