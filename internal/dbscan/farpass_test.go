package dbscan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/unionfind"
)

// bridgeFixture is two blobs of three cells each in the decomposition of
// ε = 1 (side 1/√2, origin pinned by a noise point at (0, 0)), joined only
// by the cell pair a = (10, 10), b = (10+dr, 10+dc). Each blob runs from its
// bridge cell away from the other along the axis of the larger offset, so
// every other cross pair is three cells apart, and the cells between a and
// b hold nothing. A bridge cell holds perCell points, facing of them by the
// side that faces the other cell and the rest near its centre; each other
// cell holds body points by the side that faces its blob's bridge cell.
// blob[i] is 0 or 1 for a blob point, -1 for the anchor.
func bridgeFixture(dr, dc int32, perCell, facing, body int) (pts []geom.Point, blob []int8) {
	side := 1 / math.Sqrt2 * cellMargin
	// near returns the fraction of a cell nearest a neighbour at offset d.
	near := func(d int32) float64 {
		switch {
		case d > 0:
			return 0.95
		case d < 0:
			return 0.05
		}
		return 0.5
	}
	u := [2]int32{1, 0} // the direction blob 1 grows in, blob 0 against it
	if dc == 2 || dc == -2 {
		u = [2]int32{0, dc / 2}
	}
	pts, blob = []geom.Point{{}}, []int8{-1}
	cell := func(b int8, r, c int32, n int, fy, fx float64) {
		for i := 0; i < n; i++ {
			// Jitter by a hundredth of a cell, towards the centre.
			jx, jy := 0.01*float64(i%3), 0.01*float64(i/3%3)
			if fx > 0.5 {
				jx = -jx
			}
			if fy > 0.5 {
				jy = -jy
			}
			pts = append(pts, geom.Point{X: (float64(c) + fx + jx) * side, Y: (float64(r) + fy + jy) * side})
			blob = append(blob, b)
		}
	}
	const r0, c0 = 10, 10
	cell(0, r0, c0, facing, near(dr), near(dc))
	cell(1, r0+dr, c0+dc, facing, near(-dr), near(-dc))
	cell(0, r0, c0, perCell-facing, 0.5, 0.5)
	cell(1, r0+dr, c0+dc, perCell-facing, 0.5, 0.5)
	for k := int32(1); k < 3; k++ {
		cell(0, r0-k*u[0], c0-k*u[1], body, near(u[0]), near(u[1]))
		cell(1, r0+dr+k*u[0], c0+dc+k*u[1], body, near(-u[0]), near(-u[1]))
	}
	return pts, blob
}

// checkWidths runs p on ix at 1, 2, 3 and 8 workers, untiled and at four
// tiles, requires Run's bytes from each, and returns their work counters,
// which must all be equal.
func checkWidths(t *testing.T, ix *Index, p Params, tag string) metrics.Snapshot {
	t.Helper()
	want, err := Run(ix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first metrics.Snapshot
	for i, tiles := range []int{1, 4} {
		for j, workers := range []int{1, 2, 3, 8} {
			var m metrics.Counters
			got := tiledRun(t, ix, p, tiles, workers, &m)
			at := fmt.Sprintf("%s tiles=%d workers=%d", tag, tiles, workers)
			requireIdentical(t, got, want, at)
			if i == 0 && j == 0 {
				first = m.Snapshot()
			} else if m.Snapshot() != first {
				t.Fatalf("%s: work counters %+v, untiled at one worker %+v", at, m.Snapshot(), first)
			}
		}
	}
	return first
}

// TestFarPairBridges pins the far pass's skip to the pairs it may skip. In
// each fixture two blobs are one cluster only through one cell pair at a
// Chebyshev offset of 2, which the near pass never tests, so a far pass
// that skipped it would split them. The bridge cells are dense, or counted
// with 15 points at MinPts 16, or counted with 1 to 3 points at MinPts 2,
// 4 and 8, where a sparse cell's cores are linked by pair tests like any
// other's. The random case spreads small blobs about one cell apart, where
// many far pairs join components and many do not.
func TestFarPairBridges(t *testing.T) {
	offsets := [][2]int32{{0, 2}, {1, 2}, {1, -2}, {2, 0}, {2, 1}, {2, -1}}
	kinds := []struct {
		name                  string
		minPts                int
		perCell, facing, body int
		cls                   cellClass
	}{
		{"dense", 4, 4, 2, 4, dense},
		{"counted", 16, 15, 5, 15, counted},
		{"counted minpts=2", 2, 1, 1, 1, counted},
		{"counted minpts=4", 4, 3, 2, 3, counted},
		{"counted minpts=8", 8, 3, 3, 8, counted},
	}
	for _, k := range kinds {
		for _, o := range offsets {
			tag := fmt.Sprintf("%s (%d,%d)", k.name, o[0], o[1])
			pts, blob := bridgeFixture(o[0], o[1], k.perCell, k.facing, k.body)
			ix := BuildIndex(pts, IndexOptions{Kind: IndexGrid})
			p := Params{Eps: 1, MinPts: k.minPts}
			requireBridge(t, ix, p, blob, o, k.cls, tag)
			if want, _ := Run(ix, p, nil); want.NumClusters != 1 || want.NumNoise() != 1 {
				t.Fatalf("%s: fixture: Run finds %d clusters and %d noise, want 1 and 1", tag, want.NumClusters, want.NumNoise())
			}
			checkWidths(t, ix, p, tag)
		}
	}

	ix := BuildIndex(latticeBlobs(48), IndexOptions{Kind: IndexGrid})
	if err := ix.EnsureGrid(1); err != nil {
		t.Fatal(err)
	}
	if _, sp := tileSpans(ix, ix.cellDecomposition(1), 4, 8); sp == nil {
		t.Fatal("random fixture: four tiles fall back to chunks")
	}
	for _, mp := range []int{4, 12, 24} {
		p := Params{Eps: 1, MinPts: mp}
		ref := cellBillReference(ix, p)
		if ref.farApart == 0 || ref.farApart == ref.farPairs {
			t.Fatalf("minpts=%d: degenerate fixture: %d of %d far pairs left apart by the near pass", mp, ref.farApart, ref.farPairs)
		}
		checkWidths(t, ix, p, fmt.Sprintf("random minpts=%d", mp))
	}
}

// latticeBlobs is 900 small blobs of 3 to 16 points, their centres jittered
// about a lattice 2.2 cells of the ε = 1 decomposition apart: two blobs
// next to each other are one or two cells apart, and at MinPts 12 or 24
// there are dense and counted cells among them.
func latticeBlobs(seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	const step = 2.2 / math.Sqrt2
	var pts []geom.Point
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			cx := (float64(j) + 0.6*(rnd.Float64()-0.5)) * step
			cy := (float64(i) + 0.6*(rnd.Float64()-0.5)) * step
			for m := 3 + rnd.Intn(14); m > 0; m-- {
				pts = append(pts, geom.Point{X: cx + 0.1*rnd.NormFloat64(), Y: cy + 0.1*rnd.NormFloat64()})
			}
		}
	}
	return pts
}

// requireBridge checks what bridgeFixture promises: every ε-edge between
// the two blobs joins a point of cell (10, 10) to one of (10, 10)+o, and
// there is one; both cells are of class cls.
func requireBridge(t *testing.T, ix *Index, p Params, blob []int8, o [2]int32, cls cellClass, tag string) {
	t.Helper()
	if err := ix.EnsureGrid(p.Eps); err != nil {
		t.Fatal(err)
	}
	g := ix.cellDecomposition(p.Eps)
	if g == nil {
		t.Fatalf("%s: no cell decomposition", tag)
	}
	s := onePass{minPts: p.MinPts}
	at := make([][2]int32, ix.Len())
	cols, rows := g.Shape()
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			lo, hi := g.CellRange(r, c, c+1)
			for slot := lo; slot < hi; slot++ {
				at[g.SlotID(slot)] = [2]int32{r, c}
			}
		}
	}
	a, b := [2]int32{10, 10}, [2]int32{10 + o[0], 10 + o[1]}
	for _, x := range [][2]int32{a, b} {
		if k := s.class(g.CellCount(x[0], x[1])); k != cls {
			t.Fatalf("%s: cell %v is of class %d, want %d", tag, x, k, cls)
		}
	}
	edges := 0
	for i := range ix.Pts {
		for j := range ix.Pts {
			if blob[ix.Fwd[i]] != 0 || blob[ix.Fwd[j]] != 1 || ix.Pts[i].DistSq(ix.Pts[j]) > p.Eps*p.Eps {
				continue
			}
			if at[i] != a || at[j] != b {
				t.Fatalf("%s: blob points in cells %v and %v are within ε", tag, at[i], at[j])
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatalf("%s: no ε-edge between the bridge cells", tag)
	}
}

// cellBill is what a cell-major run bills, split the way the reference
// builds it.
type cellBill struct {
	searches, searchNodes, searchCands int64 // the counted points' scans
	nearPairs, nearCands               int64 // offset-1 pairs tested and their tests
	farPairs                           int64 // offset-2 pairs with a core set on both sides
	farApart, farCands                 int64 // those the near reference leaves apart, and their tests
	recordWords                        int64 // the non-core records: 2 + |N_ε| words each
}

// cellBillReference models a cell-major run of p on ix sequentially, from
// Run's core flags: a union within each cell and over each offset-1 pair
// that holds; then the far pairs that leaves apart are the ones the run
// must test and bill.
func cellBillReference(ix *Index, p Params) cellBill {
	isCore := CorePoints(ix, p, nil) // builds the search grid too
	g := ix.cellDecomposition(p.Eps)
	core := make([]uint32, len(isCore))
	for i, c := range isCore {
		if c {
			core[i] = 1
		}
	}
	s := onePass{minPts: p.MinPts}
	dsu := unionfind.NewDSU(ix.Len())
	var bill cellBill
	cols, rows := g.Shape()
	rep := make([]int32, int(cols)*int(rows))
	var nbrs []int32
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			rep[r*cols+c] = -1
			lo, hi := g.CellRange(r, c, c+1)
			k := s.class(hi - lo)
			for slot := lo; slot < hi; slot++ {
				id := g.SlotID(slot)
				if k == counted {
					var cand, nodes int
					nbrs, cand, nodes = g.CountNear(slot, p.Eps, p.MinPts, nbrs[:0])
					bill.searches++
					bill.searchCands += int64(cand)
					bill.searchNodes += int64(nodes)
				}
				switch {
				case !isCore[id]:
					nbrs, _, _ = g.EpsSearch(ix.Pts[id], p.Eps, nbrs[:0])
					bill.recordWords += 2 + int64(len(nbrs))
				case rep[r*cols+c] < 0:
					rep[r*cols+c] = id
				default:
					dsu.Union(id, rep[r*cols+c])
				}
			}
		}
	}
	bill.recordWords += 2 * int64(len(g.Unplaced()))
	pairs := func(offsets [][2]int32, visit func(r, c, rb, cb int32)) {
		for r := int32(0); r < rows; r++ {
			for c := int32(0); c < cols; c++ {
				for _, o := range offsets {
					rb, cb := r+o[0], c+o[1]
					if rb < rows && cb >= 0 && cb < cols && rep[r*cols+c] >= 0 && rep[rb*cols+cb] >= 0 {
						visit(r, c, rb, cb)
					}
				}
			}
		}
	}
	test := func(r, c, rb, cb int32) (bool, int64) {
		ka, kb := s.class(g.CellCount(r, c)), s.class(g.CellCount(rb, cb))
		var within bool
		var tests int
		if ka == dense && kb == dense {
			within, tests = g.PairWithin(r, c, rb, cb, p.Eps)
		} else {
			within, tests = g.PairWithinCore(r, c, rb, cb, p.Eps, core, ka == counted, kb == counted)
		}
		return within, int64(tests)
	}
	pairs(nearOffsets[:], func(r, c, rb, cb int32) {
		within, tests := test(r, c, rb, cb)
		bill.nearPairs++
		bill.nearCands += tests
		if within {
			dsu.Union(rep[r*cols+c], rep[rb*cols+cb])
		}
	})
	pairs(farOffsets[:], func(r, c, rb, cb int32) {
		bill.farPairs++
		if dsu.Same(rep[r*cols+c], rep[rb*cols+cb]) {
			return
		}
		_, tests := test(r, c, rb, cb)
		bill.farApart++
		bill.farCands += tests
	})
	return bill
}

// TestFarPassBilling checks what a run bills against cellBillReference,
// on dense and counted cells side by side: its ε-searches are the counted
// points', its cell-pair nodes are every near pair plus exactly the far
// pairs the near reference leaves apart, and its candidates are their
// scans and tests. The Link keeps nothing of the far pass: 8 B per point
// and 4 B per record word.
func TestFarPassBilling(t *testing.T) {
	fixtures := []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts []int
	}{
		// All but a few dozen far pairs of these are joined by the near
		// pass.
		{"blobs", countedFixture(), 0.5, []int{4, 12, 32}},
		// At 12, cores in cells of both classes, and far pairs both left
		// apart and joined.
		{"lattice", latticeBlobs(49), 1, []int{4, 12}},
	}
	for _, f := range fixtures {
		ix := BuildIndex(f.pts, IndexOptions{Kind: IndexGrid})
		for _, mp := range f.minPts {
			p := Params{Eps: f.eps, MinPts: mp}
			tag := fmt.Sprintf("%s minpts=%d", f.name, mp)
			ref := cellBillReference(ix, p)
			if _, cores := cellClasses(ix, ix.cellDecomposition(p.Eps), p); f.name == "lattice" && mp == 12 &&
				(cores[dense] == 0 || cores[counted] == 0 || ref.farApart == 0 || ref.farApart == ref.farPairs) {
				t.Fatalf("%s: degenerate fixture: %v cores by class, %d of %d far pairs left apart", tag, cores, ref.farApart, ref.farPairs)
			}
			got := checkWidths(t, ix, p, tag)
			if got.NeighborSearches != ref.searches {
				t.Errorf("%s: %d ε-searches, want %d", tag, got.NeighborSearches, ref.searches)
			}
			if pairs := got.NodesVisited - ref.searchNodes; pairs != ref.nearPairs+ref.farApart {
				t.Errorf("%s: %d cell pairs tested, want %d near + %d of %d far", tag, pairs, ref.nearPairs, ref.farApart, ref.farPairs)
			}
			if want := ref.searchCands + ref.nearCands + ref.farCands; got.CandidatesExamined != want {
				t.Errorf("%s: %d candidates, want %d", tag, got.CandidatesExamined, want)
			}
			for _, workers := range []int{1, 3} {
				_, link, err := RunLink(context.Background(), ix, p, nil, ParallelOptions{Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := 8*int64(ix.Len()) + 4*ref.recordWords; link.Bytes() != want {
					t.Errorf("%s workers=%d: Link.Bytes %d, want %d", tag, workers, link.Bytes(), want)
				}
			}
		}
	}
}
