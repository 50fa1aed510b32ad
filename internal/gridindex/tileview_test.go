package gridindex_test

import (
	"math/rand"
	"sort"
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

// TestTileEpsSearchMatchesFull is the exactness cornerstone: for every
// owned query point of every tile, the halo-clamped search must equal
// the full-grid search — same ids, same candidate count, same cells
// visited.
func TestTileEpsSearchMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		pts := blobs(6, 120, 80, 50, 1.2, seed)
		eps := 0.9 + 0.3*float64(seed)
		xs, ys := coords(pts)
		f, err := gridindex.Freeze(xs, ys, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int32{2, 3, 5} {
			for _, rect := range gridRects(f, k) {
				v := f.Tile(rect, eps)
				v.OwnedRuns(func(start, end int32) {
					for s := start; s < end; s++ {
						x, y := f.SlotCoords(s)
						p := geom.Point{X: x, Y: y}
						got, gc, gn := v.EpsSearch(p, eps, nil)
						want, wc, wn := f.EpsSearch(p, eps, nil)
						if gc != wc || gn != wn {
							t.Fatalf("seed=%d k=%d slot=%d: counts (%d,%d) want (%d,%d)",
								seed, k, s, gc, gn, wc, wn)
						}
						sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
						sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
						if len(got) != len(want) {
							t.Fatalf("seed=%d k=%d slot=%d: %d neighbors, want %d",
								seed, k, s, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("seed=%d k=%d slot=%d: ids %v want %v",
									seed, k, s, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// TestOwnedRunsCoverGridOnce: across a disjoint tile cover, every grid
// slot is yielded by OwnedRuns exactly once.
func TestOwnedRunsCoverGridOnce(t *testing.T) {
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
			v := f.Tile(rect, eps)
			v.OwnedRuns(func(start, end int32) {
				if start >= end {
					t.Fatalf("empty run [%d,%d) yielded", start, end)
				}
				for s := start; s < end; s++ {
					seen[s]++
				}
				total += int(end - start)
			})
			if got := v.OwnedPoints(); got != ownedBrute(f, rect) {
				t.Fatalf("k=%d OwnedPoints=%d want %d", k, got, ownedBrute(f, rect))
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

func ownedBrute(f *gridindex.Flat, rect gridindex.CellRect) int {
	n := 0
	for r := rect.R0; r < rect.R1; r++ {
		lo, hi := f.CellRange(r, rect.C0, rect.C1)
		n += int(hi - lo)
	}
	return n
}

// TestTileHaloClamped: halos never leave the grid, always contain the
// owned rect, and extend exactly Reach cells where the grid allows.
func TestTileHaloClamped(t *testing.T) {
	pts := blobs(3, 100, 50, 30, 0.8, 42)
	const eps = 1.7
	xs, ys := coords(pts)
	f, err := gridindex.Freeze(xs, ys, eps)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := f.Shape()
	reach := f.Reach(eps)
	if reach < 1 {
		t.Fatalf("reach = %d, want >= 1", reach)
	}
	rnd := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		c0, r0 := rnd.Int31n(cols), rnd.Int31n(rows)
		rect := gridindex.CellRect{
			C0: c0, R0: r0,
			C1: c0 + 1 + rnd.Int31n(cols-c0), R1: r0 + 1 + rnd.Int31n(rows-r0),
		}
		v := f.Tile(rect, eps)
		h := v.Halo()
		if h.C0 > rect.C0 || h.R0 > rect.R0 || h.C1 < rect.C1 || h.R1 < rect.R1 {
			t.Fatalf("halo %+v does not contain owned %+v", h, rect)
		}
		if h.C0 < 0 || h.R0 < 0 || h.C1 > cols || h.R1 > rows {
			t.Fatalf("halo %+v exceeds grid %dx%d", h, cols, rows)
		}
		if want := max(0, rect.C0-reach); h.C0 != want {
			t.Fatalf("halo C0 = %d, want %d", h.C0, want)
		}
		if want := min(rows, rect.R1+reach); h.R1 != want {
			t.Fatalf("halo R1 = %d, want %d", h.R1, want)
		}
	}
}
