package rtree

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"vdbscan/internal/geom"
	"vdbscan/internal/kernel"
)

// flatLocalStack is the traversal stack capacity that searches keep in a
// stack-allocated array. A tree needs height·(fanout−1)+1 slots in the
// worst case; 128 covers the default fanout 16 up to height 9 (≈ 16⁸ leaf
// entries, far beyond anything that fits in memory). The array is kept
// small because Go zero-initializes it on every call — at 128·4 B the
// memclr is noise, while a generous stack would tax every ε-search.
// Deeper/wider configurations fall back to a pooled heap stack sized
// exactly at build time.
const flatLocalStack = 128

// Flat is the R-tree, built once by BulkLoad in a cache-friendly layout
// that lets steady-state searches
//
//   - touch only a handful of flat slices (struct-of-arrays MBBs,
//     int32 child/leaf offsets) laid out in BFS order, parent levels
//     before children, so a root-to-leaf walk moves forward in memory;
//   - traverse iteratively with an explicit stack — no recursion, no
//     per-node heap objects, no closure on the hot path; and
//   - allocate nothing: the traversal stack lives in a fixed-size local
//     array (spilling to a sync.Pool only for trees deeper than any
//     realistic configuration), and result buffers are caller-provided.
//
// This mirrors the linearized layouts of Wang/Gu/Shun (SIGMOD 2020) and
// Prokopenko et al. (ArborX) that make tree-based ε-search fast in
// practice. A Flat is immutable and safe for unlimited concurrent
// searches. All slices are struct-of-arrays: entry i's MBB is
// (entMinX[i], entMinY[i])–(entMaxX[i], entMaxY[i]).
type Flat struct {
	pts []geom.Point
	// ptX/ptY are SoA copies of the point coordinates, so the ε distance
	// filter scans two contiguous float64 slices instead of striding
	// through []geom.Point. They may be shared across trees built over
	// the same point array (BulkLoad's x, y).
	ptX, ptY []float64

	// Entry arrays, indexed by a global entry id. A node owns the
	// contiguous entry range [nodeEnt[n], nodeEnt[n+1]).
	entMinX, entMinY, entMaxX, entMaxY []float64
	// entRef is the child node id for interior entries, or the start
	// offset into the point array for leaf entries.
	entRef []int32
	// entCnt is the leaf entry's point count (unused, zero, for interior
	// entries).
	entCnt []int32

	// nodeEnt is the prefix array of entry ranges, len numNodes+1. Nodes
	// are numbered in BFS order with the root at 0; because every leaf
	// sits at the same depth, all leaves occupy the id range
	// [firstLeaf, numNodes).
	nodeEnt   []int32
	firstLeaf int32

	height, r, fanout, size int

	// maxStack is the exact worst-case traversal stack size for this
	// tree; stackPool is only initialized when it exceeds flatLocalStack.
	maxStack  int
	stackPool *sync.Pool
}

// ErrFlatTooLarge is the panic value (wrapped with size detail) raised by
// BulkLoad when the tree exceeds the flat layout's int32 offset space.
// All entry, child, and point offsets in a Flat are int32 —
// the cap is math.MaxInt32 (≈2.1e9) leaf entries and points; beyond that
// the unchecked casts would silently wrap and corrupt the index.
var ErrFlatTooLarge = errors.New("rtree: tree exceeds flat layout int32 offset space")

// checkCompactBounds validates that entries and points fit the int32
// offsets of the flat layout. Factored out of BulkLoad so the guard is
// unit-testable without allocating a multi-gigabyte tree.
func checkCompactBounds(entries, points int) error {
	if entries > math.MaxInt32 {
		return fmt.Errorf("%w: %d entries > %d", ErrFlatTooLarge, entries, math.MaxInt32)
	}
	if points > math.MaxInt32 {
		return fmt.Errorf("%w: %d points > %d", ErrFlatTooLarge, points, math.MaxInt32)
	}
	return nil
}

// entMBB is entry e's bounding box.
func (f *Flat) entMBB(e int32) geom.MBB {
	return geom.MBB{MinX: f.entMinX[e], MinY: f.entMinY[e], MaxX: f.entMaxX[e], MaxY: f.entMaxY[e]}
}

// Points returns the backing point array; leaf ranges index into it.
func (f *Flat) Points() []geom.Point { return f.pts }

// Coords returns the SoA coordinate slices the distance filter scans.
func (f *Flat) Coords() (x, y []float64) { return f.ptX, f.ptY }

// Len returns the number of indexed points.
func (f *Flat) Len() int { return f.size }

// R returns the leaf occupancy the tree was built with.
func (f *Flat) R() int { return f.r }

// SearchCandidates appends to dst the indices of all points in leaf
// entries overlapping q (candidates only — the caller distance-filters)
// and returns dst plus the number of nodes touched. Leaf entries are
// visited in entry order, so the candidates come out in ascending index
// order.
func (f *Flat) SearchCandidates(q geom.MBB, dst []int32) (out []int32, nodesVisited int) {
	if f.maxStack <= flatLocalStack {
		var buf [flatLocalStack]int32
		return f.searchCandidates(buf[:0], q, dst)
	}
	sp := f.stackPool.Get().(*[]int32)
	out, n := f.searchCandidates((*sp)[:0], q, dst)
	f.stackPool.Put(sp)
	return out, n
}

func (f *Flat) searchCandidates(stack []int32, q geom.MBB, dst []int32) ([]int32, int) {
	// Locals for the same aliasing reason as epsSearch.
	entMinX, entMinY := f.entMinX, f.entMinY
	entMaxX, entMaxY := f.entMaxX, f.entMaxY
	entRef, entCnt := f.entRef, f.entCnt
	nodeEnt, firstLeaf := f.nodeEnt, f.firstLeaf
	nodes := 0
	stack = append(stack, 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		lo, hi := nodeEnt[ni], nodeEnt[ni+1]
		if ni >= firstLeaf {
			for e := lo; e < hi; e++ {
				if entMinX[e] <= q.MaxX && q.MinX <= entMaxX[e] &&
					entMinY[e] <= q.MaxY && q.MinY <= entMaxY[e] {
					start, end := entRef[e], entRef[e]+entCnt[e]
					for i := start; i < end; i++ {
						dst = append(dst, i)
					}
				}
			}
			continue
		}
		for e := hi - 1; e >= lo; e-- {
			if entMinX[e] <= q.MaxX && q.MinX <= entMaxX[e] &&
				entMinY[e] <= q.MaxY && q.MinY <= entMaxY[e] {
				stack = append(stack, entRef[e])
			}
		}
	}
	return dst, nodes
}

// EpsSearch is the fused ε-neighborhood search (Algorithm 2 without the
// per-leaf callback): it walks the leaves intersecting the ε-augmented
// box around p and distance-filters their point runs against the SoA
// coordinate slices, appending passing indices to dst. It returns dst,
// the number of candidate points examined, and the number of nodes
// touched, with zero heap allocations once dst has warmed up.
func (f *Flat) EpsSearch(p geom.Point, eps float64, dst []int32) (out []int32, candidates, nodesVisited int) {
	if f.maxStack <= flatLocalStack {
		var buf [flatLocalStack]int32
		return f.epsSearch(buf[:0], p, eps, dst)
	}
	sp := f.stackPool.Get().(*[]int32)
	out, c, n := f.epsSearch((*sp)[:0], p, eps, dst)
	f.stackPool.Put(sp)
	return out, c, n
}

func (f *Flat) epsSearch(stack []int32, p geom.Point, eps float64, dst []int32) ([]int32, int, int) {
	minX, minY := p.X-eps, p.Y-eps
	maxX, maxY := p.X+eps, p.Y+eps
	epsSq := eps * eps
	px, py := p.X, p.Y
	// Hoist every array into a local: dst shares the []int32 element type
	// with entRef/entCnt, so without these the compiler must assume each
	// append may alias a tree slice and reload the headers every access.
	ptX, ptY := f.ptX, f.ptY
	entMinX, entMinY := f.entMinX, f.entMinY
	entMaxX, entMaxY := f.entMaxX, f.entMaxY
	entRef, entCnt := f.entRef, f.entCnt
	nodeEnt, firstLeaf := f.nodeEnt, f.firstLeaf
	candidates, nodes := 0, 0
	stack = append(stack, 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++
		lo, hi := nodeEnt[ni], nodeEnt[ni+1]
		if ni >= firstLeaf {
			for e := lo; e < hi; e++ {
				if entMinX[e] <= maxX && minX <= entMaxX[e] &&
					entMinY[e] <= maxY && minY <= entMaxY[e] {
					start, end := int(entRef[e]), int(entRef[e]+entCnt[e])
					candidates += end - start
					dst = kernel.FilterEps(dst,
						ptX[start:end:end], ptY[start:end:end],
						int32(start), px, py, epsSq)
				}
			}
			continue
		}
		for e := hi - 1; e >= lo; e-- {
			if entMinX[e] <= maxX && minX <= entMaxX[e] &&
				entMinY[e] <= maxY && minY <= entMaxY[e] {
				stack = append(stack, entRef[e])
			}
		}
	}
	return dst, candidates, nodes
}
