package gridindex_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdbscan/internal/geom"
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

// TestPairWithinCoreMatchesBruteForce: with random flags, PairWithinCore
// must agree with the all-pairs answer over the points each restricted side
// lets take part, and unrestricted it must be PairWithin, tests included.
func TestPairWithinCoreMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pts := blobs(5, 150, 200, 30, 0.9, 60+seed)
		eps := 0.5 + 0.25*float64(seed)
		xs, ys := coords(pts)
		f, err := gridindex.Freeze(xs, ys, eps/math.Sqrt2*(1-1e-9))
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(seed))
		core := make([]uint32, len(pts))
		for i := range core {
			core[i] = uint32(rnd.Intn(2))
		}
		takes := func(s int32, only bool) bool { return !only || core[f.SlotID(s)] != 0 }
		cols, rows := f.Shape()
		differ := 0
		for ra := int32(0); ra < rows; ra++ {
			for ca := int32(0); ca < cols; ca++ {
				a0, a1 := f.CellRange(ra, ca, ca+1)
				for rb := max(ra-2, 0); rb <= min(ra+2, rows-1); rb++ {
					for cb := max(ca-2, 0); cb <= min(ca+2, cols-1); cb++ {
						b0, b1 := f.CellRange(rb, cb, cb+1)
						if a0 == a1 || b0 == b1 || (ra == rb && ca == cb) {
							continue
						}
						for mask := 0; mask < 4; mask++ {
							onlyA, onlyB := mask&1 != 0, mask&2 != 0
							want := false
							for s := a0; s < a1 && !want; s++ {
								ax, ay := f.SlotCoords(s)
								for u := b0; u < b1 && takes(s, onlyA); u++ {
									bx, by := f.SlotCoords(u)
									if takes(u, onlyB) && (ax-bx)*(ax-bx)+(ay-by)*(ay-by) <= eps*eps {
										want = true
										break
									}
								}
							}
							got, tests := f.PairWithinCore(ra, ca, rb, cb, eps, core, onlyA, onlyB)
							if got != want {
								t.Fatalf("seed=%d cells (%d,%d)-(%d,%d) onlyA=%v onlyB=%v: within=%v, brute force %v",
									seed, ra, ca, rb, cb, onlyA, onlyB, got, want)
							}
							plain, ptests := f.PairWithin(ra, ca, rb, cb, eps)
							if mask == 0 && (plain != got || ptests != tests) {
								t.Fatalf("seed=%d cells (%d,%d)-(%d,%d): unrestricted %v in %d tests, PairWithin %v in %d",
									seed, ra, ca, rb, cb, got, tests, plain, ptests)
							}
							if plain != got {
								differ++
							}
						}
					}
				}
			}
		}
		if differ == 0 {
			t.Fatalf("seed=%d: degenerate fixture, the flags never changed an answer", seed)
		}
	}
}

// TestCountNearMatchesEpsSearch: on the ε/√2 decomposition, a count that
// does not stop early finds the ε-neighbourhood EpsSearch finds, and one
// that stops has found at least stop neighbours, all within ε.
func TestCountNearMatchesEpsSearch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		pts := blobs(5, 150, 200, 30, 0.9, 80+seed)
		eps := 0.5 + 0.25*float64(seed)
		xs, ys := coords(pts)
		f, err := gridindex.Freeze(xs, ys, eps/math.Sqrt2*(1-1e-9))
		if err != nil {
			t.Fatal(err)
		}
		stopped := 0
		for s := int32(0); s < int32(len(pts)); s++ {
			x, y := f.SlotCoords(s)
			full, fullCand, _ := f.EpsSearch(geom.Point{X: x, Y: y}, eps, nil)
			slices.Sort(full)
			for _, stop := range []int{1, 8, 24, len(pts) + 1} {
				got, cand, nodes := f.CountNear(s, eps, stop, nil)
				if cand > fullCand || nodes < 1 || nodes > 25 {
					t.Fatalf("seed=%d slot %d stop=%d: %d candidates in %d cells, EpsSearch %d", seed, s, stop, cand, nodes, fullCand)
				}
				slices.Sort(got)
				if len(got) < stop {
					if !slices.Equal(got, full) {
						t.Fatalf("seed=%d slot %d stop=%d: counted %v, EpsSearch %v", seed, s, stop, got, full)
					}
					continue
				}
				stopped++
				for _, id := range got {
					if _, ok := slices.BinarySearch(full, id); !ok {
						t.Fatalf("seed=%d slot %d stop=%d: %d is no neighbour", seed, s, stop, id)
					}
				}
			}
		}
		if stopped == 0 {
			t.Fatalf("seed=%d: degenerate fixture, no count stopped early", seed)
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

// TestPairWithinScansFromTheNearSide pins the scan order: when the second
// cell lies in a later row, the first cell is scanned from its last slot.
// Here cell (0,0)'s last slot is its top-right point, within ε of cell
// (1,0)'s first slot, so the answer takes one rectangle test and one pair
// test; a scan in slot order would start at the origin and test more.
func TestPairWithinScansFromTheNearSide(t *testing.T) {
	eps := 1.0
	side := eps / math.Sqrt2 * (1 - 1e-9)
	xs := []float64{0, 0.05, 0.1, 0.65, 0.7, 0.69}
	ys := []float64{0, 0.02, 0.05, 0.7, 0.75, 1.4}
	f, err := gridindex.Freeze(xs, ys, side)
	if err != nil {
		t.Fatal(err)
	}
	if cols, rows := f.Shape(); cols != 1 || rows != 2 || f.CellCount(0, 0) != 4 || f.CellCount(1, 0) != 2 {
		t.Fatalf("fixture: %d×%d cells holding %d and %d points, want 1×2 holding 4 and 2",
			cols, rows, f.CellCount(0, 0), f.CellCount(1, 0))
	}
	if within, tests := f.PairWithin(0, 0, 1, 0, eps); !within || tests != 2 {
		t.Fatalf("within=%v after %d tests, want true after 2", within, tests)
	}
}
