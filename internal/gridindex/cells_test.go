package gridindex_test

import (
	"math"
	"testing"

	"vdbscan/internal/gridindex"
)

// gridRects cuts the grid's cell rectangle into a k×k set of equal cell
// spans (the partitioner proper lives in internal/tiling; these tests
// only need *some* disjoint cover).
func gridRects(f *gridindex.Flat, k int32) []gridindex.CellRect {
	cols, rows := f.Shape()
	if k > cols {
		k = cols
	}
	if k > rows {
		k = rows
	}
	if k < 1 {
		k = 1
	}
	cut := func(n, i int32) int32 { return n * i / k }
	var rects []gridindex.CellRect
	for ri := int32(0); ri < k; ri++ {
		for ci := int32(0); ci < k; ci++ {
			r := gridindex.CellRect{
				C0: cut(cols, ci), R0: cut(rows, ri),
				C1: cut(cols, ci+1), R1: cut(rows, ri+1),
			}
			if !r.Empty() {
				rects = append(rects, r)
			}
		}
	}
	return rects
}

// TestCellRangeCoversGridOnce: across a disjoint rectangle cover, the row
// runs CellRange returns hold every grid slot exactly once.
func TestCellRangeCoversGridOnce(t *testing.T) {
	pts := blobs(5, 200, 100, 40, 1.0, 7)
	const eps = 1.1
	xs, ys := coords(pts)
	f, err := gridindex.Freeze(xs, ys, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int32{1, 2, 4, 7} {
		seen := make([]int, f.Len())
		total := 0
		for _, rect := range gridRects(f, k) {
			for r := rect.R0; r < rect.R1; r++ {
				start, end := f.CellRange(r, rect.C0, rect.C1)
				var cells int32
				for c := rect.C0; c < rect.C1; c++ {
					cells += f.CellCount(r, c)
				}
				if end-start != cells {
					t.Fatalf("k=%d row %d: run of %d slots, cells hold %d", k, r, end-start, cells)
				}
				for s := start; s < end; s++ {
					seen[s]++
				}
				total += int(end - start)
			}
		}
		if total != f.Len() {
			t.Fatalf("k=%d covered %d slots, want %d", k, total, f.Len())
		}
		for s, c := range seen {
			if c != 1 {
				t.Fatalf("k=%d slot %d covered %d times", k, s, c)
			}
		}
	}
}

// TestPairWithinMatchesBruteForce: on the ε/√2 decomposition, PairWithin
// for every ordered pair of occupied cells of a 5×5 block must agree with
// the all-pairs answer under the search kernel's expression, must never
// test more than every point of the first cell against the second cell's
// rectangle and points, and must count the same on every call.
func TestPairWithinMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pts := blobs(5, 150, 200, 30, 0.9, 40+seed)
		eps := 0.5 + 0.25*float64(seed)
		xs, ys := coords(pts)
		f, err := gridindex.Freeze(xs, ys, eps/math.Sqrt2*(1-1e-9))
		if err != nil {
			t.Fatal(err)
		}
		cols, rows := f.Shape()
		linked, pairs := 0, 0
		for ra := int32(0); ra < rows; ra++ {
			for ca := int32(0); ca < cols; ca++ {
				a0, a1 := f.CellRange(ra, ca, ca+1)
				for rb := max(ra-2, 0); rb <= min(ra+2, rows-1); rb++ {
					for cb := max(ca-2, 0); cb <= min(ca+2, cols-1); cb++ {
						b0, b1 := f.CellRange(rb, cb, cb+1)
						if a0 == a1 || b0 == b1 || (ra == rb && ca == cb) {
							continue
						}
						want := false
						for s := a0; s < a1 && !want; s++ {
							ax, ay := f.SlotCoords(s)
							for u := b0; u < b1; u++ {
								bx, by := f.SlotCoords(u)
								if (ax-bx)*(ax-bx)+(ay-by)*(ay-by) <= eps*eps {
									want = true
									break
								}
							}
						}
						got, tests := f.PairWithin(ra, ca, rb, cb, eps)
						if got != want {
							t.Fatalf("seed=%d cells (%d,%d)-(%d,%d): within=%v, brute force %v", seed, ra, ca, rb, cb, got, want)
						}
						if limit := int(a1-a0) * int(b1-b0+1); tests < 1 || tests > limit {
							t.Fatalf("seed=%d cells (%d,%d)-(%d,%d): %d tests outside [1, %d]", seed, ra, ca, rb, cb, tests, limit)
						}
						if _, again := f.PairWithin(ra, ca, rb, cb, eps); again != tests {
							t.Fatalf("seed=%d cells (%d,%d)-(%d,%d): %d tests, then %d", seed, ra, ca, rb, cb, tests, again)
						}
						pairs++
						if got {
							linked++
						}
					}
				}
			}
		}
		if linked == 0 || linked == pairs {
			t.Fatalf("seed=%d: degenerate fixture, %d of %d cell pairs linked", seed, linked, pairs)
		}
	}
}

// TestPairWithinCornerAtExactlyEps: the farthest cells that can still hold
// a pair within ε are the (2,2)-offset corners, whose rectangles are one
// cell diagonal — ε less the sizing margin — apart. A pair placed across
// them at distance ε (dx = dy = 1 at ε = √2) must survive the rectangle
// prune; one a hair farther must not link.
func TestPairWithinCornerAtExactlyEps(t *testing.T) {
	eps := math.Sqrt2
	side := eps / math.Sqrt2 * (1 - 1e-9)
	ax := 1 - 1.5e-9 // inside cell 0, under side; ax+1 is inside cell 2
	for _, c := range []struct {
		bx, by float64
		want   bool
	}{{ax + 1, ax + 1, true}, {ax + 1 + 1e-12, ax + 1, false}} {
		f, err := gridindex.Freeze([]float64{0, ax, c.bx}, []float64{0, ax, c.by}, side)
		if err != nil {
			t.Fatal(err)
		}
		if f.CellCount(0, 0) != 2 || f.CellCount(2, 2) != 1 {
			t.Fatalf("fixture: cells (0,0) and (2,2) hold %d and %d points, want 2 and 1", f.CellCount(0, 0), f.CellCount(2, 2))
		}
		if got, _ := f.PairWithin(0, 0, 2, 2, eps); got != c.want {
			t.Errorf("b=(%v,%v): within=%v, want %v", c.bx, c.by, got, c.want)
		}
		if got, _ := f.PairWithin(2, 2, 0, 0, eps); got != c.want {
			t.Errorf("b=(%v,%v) reversed: within=%v, want %v", c.bx, c.by, got, c.want)
		}
	}
}
