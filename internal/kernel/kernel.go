// Package kernel hosts the block ε-filter kernels shared by every
// ε-search hot path: the flat R-tree leaf scan (internal/rtree) and the
// cell-grid index (internal/gridindex).
//
// The paper's §IV argument treats ε-search as memory-bound and tunes the
// leaf occupancy r to trade distance computations for memory traffic. On
// vector hardware the compute side of that trade is nearly free — but
// only if something actually issues vector instructions, and gc does not
// auto-vectorize floating-point loops. So the contiguous-run kernels
// (FilterEps, FilterEpsIDs) have two implementations:
//
//   - amd64: hand-written SSE2 (kernel_amd64.s) — two candidates per
//     iteration through SUBPD/MULPD/ADDPD and a CMPPD(LE) mask, compacted
//     branch-free: each lane's index is stored unconditionally at the
//     write cursor, which advances by the lane's mask bit. SSE2 is
//     architecturally guaranteed on amd64, so there is no feature
//     detection and no dispatch overhead. The packed instructions perform
//     the identical IEEE-754 double operations as the scalar expression
//     dx*dx + dy*dy (no FMA contraction on either path), so results are
//     bit-identical to the fallback and to geom.Point.DistSq.
//
//   - everywhere else: a single-pass scalar loop with the same
//     unconditional-store/guarded-increment compaction, which the
//     compiler lowers to a conditional move instead of a data-dependent
//     branch.
//
// All kernels append to a caller-owned destination slice and allocate only
// when it must grow, so warmed-up searches stay off the heap entirely
// (asserted by AllocsPerRun tests here and in every caller).
package kernel

// Block is the nominal batch width callers may size buffers around. The
// amd64 kernel consumes candidates two at a time (SSE2 lanes); Block
// stays 8 so a future AVX widening needs no caller changes.
const Block = 8

// ensure reserves capacity for n more elements, growing geometrically so
// repeated small reservations amortize to O(1) per element.
func ensure(dst []int32, n int) []int32 {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	newCap := 2 * cap(dst)
	if newCap < len(dst)+n {
		newCap = len(dst) + n
	}
	if newCap < 64 {
		newCap = 64
	}
	grown := make([]int32, len(dst), newCap)
	copy(grown, dst)
	return grown
}

// FilterEps appends base+i to dst for every position i in the contiguous
// coordinate run (xs[i], ys[i]) with (px-xs[i])² + (py-ys[i])² ≤ epsSq,
// preserving ascending order. xs and ys must have equal length. This is
// the leaf-run filter of the flat R-tree ε-search and the per-row filter
// of the grid index.
func FilterEps(dst []int32, xs, ys []float64, base int32, px, py, epsSq float64) []int32 {
	n := len(xs)
	if n == 0 {
		return dst
	}
	dst = ensure(dst, n)
	// buf is the full-capacity window: the compaction stores every
	// candidate unconditionally (always in bounds — we reserved n slots)
	// and only advances w on a pass, so the store never branches.
	buf := dst[:cap(dst)]
	w := filterEps(buf, len(dst), xs, ys, base, px, py, epsSq)
	return dst[:w]
}

// FilterEpsIDs is FilterEps emitting ids[i] instead of base+i: the grid
// index stores coordinates grid-sorted with a parallel id array mapping
// each slot back to the caller's index space, so the kernel translates
// while it compacts (ids loads are sequential, not gathers).
func FilterEpsIDs(dst []int32, xs, ys []float64, ids []int32, px, py, epsSq float64) []int32 {
	n := len(xs)
	if n == 0 {
		return dst
	}
	dst = ensure(dst, n)
	buf := dst[:cap(dst)]
	w := filterEpsIDs(buf, len(dst), xs, ys, ids, px, py, epsSq)
	return dst[:w]
}
