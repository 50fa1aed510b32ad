// Package grid implements the spatial binning sort the paper applies before
// indexing (§IV-A): "Before indexing, we sort the points p_i ∈ D into bins in
// the x and y dimensions of unit width."
//
// The sort makes consecutive points spatially coherent, so that packing runs
// of r points into one R-tree leaf MBB (see internal/rtree) produces compact
// boxes with little dead space. The bin width is configurable (the paper uses
// unit width for degree-scaled TEC data; other units may need other widths).
//
// The order is row-major over bins anchored at the finite points' minimum
// corner, then (y, x) within a bin: a stable LSD byte-radix pass over the
// integer bin keys groups the points by bin, then each bin's run is sorted.
// Points with a NaN or infinite coordinate follow the last bin.
package grid

import (
	"math"
	"slices"

	"vdbscan/internal/geom"
)

// binKey is the (column, row) bin a point falls into.
type binKey [2]int64

// keyer assigns points to square bins anchored at the finite points'
// minimum corner.
type keyer struct{ originX, originY, width float64 }

// newKeyer builds a keyer over the finite points of pts with bins of side
// binWidth. binWidth must be > 0.
func newKeyer(pts []geom.Point, binWidth float64) keyer {
	if binWidth <= 0 {
		panic("grid: binWidth must be positive")
	}
	k := keyer{math.Inf(1), math.Inf(1), binWidth}
	for _, p := range pts {
		if geom.Finite(p.X, p.Y) {
			k.originX, k.originY = min(k.originX, p.X), min(k.originY, p.Y)
		}
	}
	return k
}

// key returns the bin that p falls into.
func (k keyer) key(p geom.Point) binKey {
	return binKey{binIndex((p.X - k.originX) / k.width), binIndex((p.Y - k.originY) / k.width)}
}

// binIndex floors f and saturates it into int64, NaN to the top: Go leaves
// an out-of-range float→int conversion implementation-defined.
func binIndex(f float64) int64 {
	if f = math.Floor(f); !(f < 0x1p63) {
		return math.MaxInt64
	}
	return int64(max(f, -0x1p63))
}

// binned is a point's input index and its bin key, sign bits flipped so
// that unsigned order is int64 order.
type binned struct {
	key [2]uint64
	i   int
}

// Sort orders pts by bin (row-major: row, then column) and, within a bin,
// by (y, x), keeping equal points in input order; points with a NaN or
// infinite coordinate come last, in input order. It returns the reordered
// copy together with fwd, where fwd[newIndex] = originalIndex. The input
// slice is not modified.
func Sort(pts []geom.Point, binWidth float64) (sorted []geom.Point, fwd []int) {
	k := newKeyer(pts, binWidth)
	items := make([]binned, 0, len(pts))
	for i, p := range pts {
		if geom.Finite(p.X, p.Y) {
			c := k.key(p)
			items = append(items, binned{[2]uint64{uint64(c[0]) ^ 1<<63, uint64(c[1]) ^ 1<<63}, i})
		}
	}
	items = radixSort(items)

	type cellPoint struct {
		y, x float64
		i    int
	}
	sorted = make([]geom.Point, 0, len(pts))
	fwd = make([]int, 0, len(pts))
	var run []cellPoint
	for s, e := 0, 0; s < len(items); s = e {
		for run = run[:0]; e < len(items) && items[e].key == items[s].key; e++ {
			p := pts[items[e].i]
			run = append(run, cellPoint{p.Y, p.X, items[e].i})
		}
		slices.SortStableFunc(run, func(a, b cellPoint) int {
			switch {
			case a.y < b.y || a.y == b.y && a.x < b.x:
				return -1
			case a.y > b.y || a.y == b.y && a.x > b.x:
				return 1
			}
			return 0
		})
		for _, c := range run {
			sorted, fwd = append(sorted, geom.Point{X: c.x, Y: c.y}), append(fwd, c.i)
		}
	}
	for i, p := range pts {
		if !geom.Finite(p.X, p.Y) {
			sorted, fwd = append(sorted, p), append(fwd, i)
		}
	}
	return sorted, fwd
}

// radixSort stably sorts items by key, row before column, one byte per
// pass from the column's least significant byte up. A byte position where
// every key agrees is skipped. It returns the sorted slice, which is items
// or a scratch slice of the same length.
func radixSort(items []binned) []binned {
	var diff [2]uint64
	for _, it := range items {
		diff[0] |= it.key[0] ^ items[0].key[0]
		diff[1] |= it.key[1] ^ items[0].key[1]
	}
	var tmp []binned
	for w := range diff {
		for shift := 0; shift < 64; shift += 8 {
			if byte(diff[w]>>shift) == 0 {
				continue
			}
			if tmp == nil {
				tmp = make([]binned, len(items))
			}
			var next [256]int
			for _, it := range items {
				next[byte(it.key[w]>>shift)]++
			}
			sum := 0
			for d, c := range next {
				next[d], sum = sum, sum+c
			}
			for _, it := range items {
				d := byte(it.key[w] >> shift)
				tmp[next[d]] = it
				next[d]++
			}
			items, tmp = tmp, items
		}
	}
	return items
}
