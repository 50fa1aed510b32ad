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
//
// Every pass runs on GOMAXPROCS workers over contiguous ranges of its input
// (internal/forkjoin), merged in range order: per-range minima for the
// bins' anchor, per-range counts placing each range's keys, per-range
// radix histograms prefixed in (digit, range) order, and bin-aligned ranges
// for the within-bin sort. The permutation is the same at every width.
package grid

import (
	"math"

	"vdbscan/internal/forkjoin"
	"vdbscan/internal/geom"
)

// binKey is the (column, row) bin a point falls into.
type binKey [2]int64

// keyer assigns points to square bins anchored at the finite points'
// minimum corner.
type keyer struct{ originX, originY, width float64 }

// newKeyer builds a keyer over the finite points of pts with bins of side
// binWidth, reducing over w ranges of pts (forkjoin.Cut) in parallel. It
// also returns, for each range k, the number of finite points before it:
// finiteBefore[w] is the finite total. binWidth must be > 0.
func newKeyer(pts []geom.Point, binWidth float64, w int) (k keyer, finiteBefore []int) {
	if binWidth <= 0 {
		panic("grid: binWidth must be positive")
	}
	type part struct {
		minX, minY float64
		finite     int
	}
	parts := make([]part, w)
	forkjoin.Ranges(len(pts), w, func(r, lo, hi int) {
		q := part{math.Inf(1), math.Inf(1), 0}
		for _, p := range pts[lo:hi] {
			if geom.Finite(p.X, p.Y) {
				q.minX, q.minY, q.finite = min(q.minX, p.X), min(q.minY, p.Y), q.finite+1
			}
		}
		parts[r] = q
	})
	k = keyer{math.Inf(1), math.Inf(1), binWidth}
	finiteBefore = make([]int, w+1)
	for r, q := range parts {
		k.originX, k.originY = min(k.originX, q.minX), min(k.originY, q.minY)
		finiteBefore[r+1] = finiteBefore[r] + q.finite
	}
	return k, finiteBefore
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

// binned is a point's input index and a two-word key: its bin, sign bits
// flipped so that unsigned order is int64 order, for the radix pass; then,
// once the bin's run is cut out, the bits of the point's (y, x) for the
// within-bin sort.
type binned struct {
	key [2]uint64
	i   int
}

// before orders two items of one run by (y, x) and then by input index,
// which makes the order total: any correct sort of a run gives the stable
// one.
func (a binned) before(b binned) bool {
	ay, by := math.Float64frombits(a.key[0]), math.Float64frombits(b.key[0])
	ax, bx := math.Float64frombits(a.key[1]), math.Float64frombits(b.key[1])
	return ay < by || ay == by && (ax < bx || ax == bx && a.i < b.i)
}

// runBlock is the length of the blocks sortRun insertion-sorts before it
// merges them.
const runBlock = 32

// sortRun sorts run by binned.before and returns the sorted run, which is
// run or buf (of run's length): it insertion-sorts blocks of runBlock
// items, then merges them bottom-up, ping-ponging between the two.
func sortRun(run, buf []binned) []binned {
	n := len(run)
	for lo := 0; lo < n; lo += runBlock {
		block := run[lo:min(lo+runBlock, n)]
		for j := 1; j < len(block); j++ {
			c, m := block[j], j
			for ; m > 0 && c.before(block[m-1]); m-- {
				block[m] = block[m-1]
			}
			block[m] = c
		}
	}
	for width := runBlock; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			a, b, out := run[lo:mid], run[mid:hi], buf[lo:hi]
			i, j, k := 0, 0, 0
			for ; i < len(a) && j < len(b); k++ {
				if b[j].before(a[i]) {
					out[k], j = b[j], j+1
				} else {
					out[k], i = a[i], i+1
				}
			}
			k += copy(out[k:], a[i:])
			copy(out[k:], b[j:])
		}
		run, buf = buf, run
	}
	return run
}

// Sort orders pts by bin (row-major: row, then column) and, within a bin,
// by (y, x), keeping equal points in input order; points with a NaN or
// infinite coordinate come last, in input order. It returns the reordered
// copy, fwd, where fwd[newIndex] = originalIndex, and x and y, the
// reordered coordinates as struct-of-arrays slices. The input slice is not
// modified. Sort runs on GOMAXPROCS workers (forkjoin.Width) and returns
// the same bytes at any width.
func Sort(pts []geom.Point, binWidth float64) (sorted []geom.Point, fwd []int, x, y []float64) {
	return sortWidth(pts, binWidth, forkjoin.Width(len(pts)))
}

// sortWidth is Sort on w workers.
func sortWidth(pts []geom.Point, binWidth float64, w int) (sorted []geom.Point, fwd []int, x, y []float64) {
	n := len(pts)
	k, finiteBefore := newKeyer(pts, binWidth, w)
	nFinite := finiteBefore[w]
	sorted, fwd = make([]geom.Point, n), make([]int, n)
	x, y = make([]float64, n), make([]float64, n)
	put := func(t int, p geom.Point, i int) {
		sorted[t], fwd[t], x[t], y[t] = p, i, p.X, p.Y
	}

	// Key the finite points in input order, each range into its own slice
	// of items, and place the others straight after the last bin. Columns
	// and rows are ≥ 0 and some point has column 0, some row 0, so the
	// bits set in any column or row are those in which two keys differ.
	items := make([]binned, nFinite)
	spread := make([][2]uint64, w)
	forkjoin.Ranges(n, w, func(r, lo, hi int) {
		f, t := finiteBefore[r], nFinite+lo-finiteBefore[r]
		var d [2]uint64
		for i := lo; i < hi; i++ {
			p := pts[i]
			if !geom.Finite(p.X, p.Y) {
				put(t, p, i)
				t++
				continue
			}
			c := k.key(p)
			items[f] = binned{[2]uint64{uint64(c[0]) ^ 1<<63, uint64(c[1]) ^ 1<<63}, i}
			f++
			d[0], d[1] = d[0]|uint64(c[0]), d[1]|uint64(c[1])
		}
		spread[r] = d
	})
	var diff [2]uint64
	for _, d := range spread {
		diff[0], diff[1] = diff[0]|d[0], diff[1]|d[1]
	}
	items, spare := radixSort(items, make([]binned, nFinite), diff, w)

	// Cut the items into one range per worker at bin boundaries; each
	// worker re-keys each of its bins' runs by (y, x), sorts it with the
	// same slots of the spare radix buffer as scratch and writes it to its
	// final slots.
	cuts := make([]int, w+1)
	cuts[w] = nFinite
	for r := 1; r < w; r++ {
		c := max(forkjoin.Cut(nFinite, w, r), cuts[r-1])
		for c > 0 && c < nFinite && items[c].key == items[c-1].key {
			c++
		}
		cuts[r] = c
	}
	forkjoin.Do(w, func(r int) {
		for s, e := cuts[r], cuts[r]; s < cuts[r+1]; s = e {
			for e < cuts[r+1] && items[e].key == items[s].key {
				e++
			}
			run := items[s:e]
			for j := range run {
				p := pts[run[j].i]
				run[j].key = [2]uint64{math.Float64bits(p.Y), math.Float64bits(p.X)}
			}
			for j, it := range sortRun(run, spare[s:e]) {
				put(s+j, geom.Point{X: math.Float64frombits(it.key[1]), Y: math.Float64frombits(it.key[0])}, it.i)
			}
		}
	})
	return sorted, fwd, x, y
}

// radixSort stably sorts items by key, row before column, one byte per
// pass from the column's least significant byte up, skipping the byte
// positions where diff is zero. Each pass histograms w contiguous ranges
// in parallel, prefixes the counts in (digit, range) order and scatters
// each range to its own offsets: the permutation of the sequential pass.
// It returns the sorted slice and the other, spare one of items and tmp,
// which has items' length.
func radixSort(items, tmp []binned, diff [2]uint64, w int) (sorted, spare []binned) {
	hist := make([][256]int, w)
	for word := range diff {
		for shift := 0; shift < 64; shift += 8 {
			if byte(diff[word]>>shift) == 0 {
				continue
			}
			src, dst := items, tmp
			forkjoin.Ranges(len(src), w, func(r, lo, hi int) {
				h := &hist[r]
				*h = [256]int{}
				for _, it := range src[lo:hi] {
					h[byte(it.key[word]>>shift)]++
				}
			})
			sum := 0
			for d := 0; d < 256; d++ {
				for r := range hist {
					hist[r][d], sum = sum, sum+hist[r][d]
				}
			}
			forkjoin.Ranges(len(src), w, func(r, lo, hi int) {
				next := &hist[r]
				for _, it := range src[lo:hi] {
					d := byte(it.key[word] >> shift)
					dst[next[d]] = it
					next[d]++
				}
			})
			items, tmp = dst, src
		}
	}
	return items, tmp
}
