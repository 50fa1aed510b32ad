package dbscan

import (
	"fmt"
	"math"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
)

// TestCellMajorBoundaries pins the places where "a cell of side ε/√2 with
// MinPts points is core" could go wrong, each against Run's bytes at one
// and four workers, tiled and untiled.
func TestCellMajorBoundaries(t *testing.T) {
	// n copies of p: a cell made dense by duplicates alone.
	dup := func(p geom.Point, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = p
		}
		return out
	}
	// The (2,2)-offset corner fixture of gridindex's PairWithin test, as a
	// clustering: with a point at the origin the decomposition for ε = √2
	// has side 1−1e-9, the duplicates at a = 1−1.5e-9 make cell (0,0) dense
	// and the ones at a+1 make cell (2,2) dense, exactly ε apart.
	a := 1 - 1.5e-9
	corner := func(gap float64) []geom.Point {
		pts := append([]geom.Point{{}}, dup(geom.Point{X: a, Y: a}, 4)...)
		return append(pts, dup(geom.Point{X: a + 1 + gap, Y: a + 1}, 4)...)
	}
	// Cells of a side-1/√2 decomposition (ε = 1, origin pinned by a point
	// at (0,0)) filled to exactly MinPts and MinPts−1 points, 10 cells
	// apart so nothing but the count decides: the first is a cluster by
	// density alone, the second is noise — until a point in the next cell,
	// within ε of all of them, makes each of them core by search.
	const side = 0.7071
	inCell := func(col, n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Point{X: (float64(col) + 0.1 + 0.2*float64(i)) * side, Y: 0.5 * side}
		}
		return out
	}
	counts := append([]geom.Point{{}}, inCell(10, 4)...) // exactly MinPts
	counts = append(counts, inCell(20, 3)...)            // MinPts−1, alone
	counts = append(counts, inCell(30, 3)...)            // MinPts−1 ...
	counts = append(counts, geom.Point{X: 31.05 * side, Y: 0.5 * side})

	cases := []struct {
		name     string
		pts      []geom.Point
		p        Params
		declined bool // the decomposition would exceed MaxCells
		clusters int
		noise    int
	}{
		{
			// Tiny ε over a wide extent: Freeze coarsens the cells to a
			// side of hundreds, and five points a unit apart share one
			// without being neighbours. Counting them core would be wrong;
			// the runner must decline to the point-major pass.
			name: "coarsened",
			pts: append(dup(geom.Point{X: 5, Y: 5}, 4),
				geom.Point{}, geom.Point{X: 1}, geom.Point{X: 2}, geom.Point{X: 3}, geom.Point{X: 4}, geom.Point{X: 1e6, Y: 1e6}),
			p: Params{Eps: 1e-3, MinPts: 4}, declined: true, clusters: 1, noise: 6,
		},
		{name: "corner at exactly eps", pts: corner(0), p: Params{Eps: math.Sqrt2, MinPts: 4}, clusters: 1},
		{name: "corner past eps", pts: corner(1e-12), p: Params{Eps: math.Sqrt2, MinPts: 4}, clusters: 2},
		{name: "exactly minpts and one short", pts: counts, p: Params{Eps: 1, MinPts: 4}, clusters: 2, noise: 4},
		{name: "minpts 1", pts: counts, p: Params{Eps: 1, MinPts: 1}, clusters: 4},
	}
	for _, c := range cases {
		ix := BuildIndex(c.pts, IndexOptions{R: 16, Kind: IndexGrid})
		want, err := Run(ix, c.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumClusters != c.clusters || want.NumNoise() != c.noise {
			t.Fatalf("%s: fixture: Run finds %d clusters and %d noise, want %d and %d",
				c.name, want.NumClusters, want.NumNoise(), c.clusters, c.noise)
		}
		if g := ix.cellDecomposition(c.p.Eps); (g == nil) != c.declined {
			t.Fatalf("%s: cell decomposition offered = %v, want declined = %v", c.name, g != nil, c.declined)
		}
		for _, tiles := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				got := tiledRun(t, ix, c.p, tiles, workers, nil)
				requireIdentical(t, got, want, fmt.Sprintf("%s tiles=%d workers=%d", c.name, tiles, workers))
			}
		}
	}
}

// TestCellDecompositionGuarantee checks the sizing rule itself on random
// data: whenever a decomposition is offered its cells are small enough
// that every two points sharing one are within ε under the search kernel's
// own test, and it is withheld exactly when the returned side is too large.
func TestCellDecompositionGuarantee(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pts := blobs(5, 200, 200, 1000*float64(seed), 0.5, 70+seed)
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexGrid})
		for _, eps := range []float64{0.05, 0.3, 2} {
			if err := ix.EnsureGrid(eps); err != nil {
				t.Fatal(err)
			}
			g := ix.cellDecomposition(eps)
			raw, err := gridindex.Freeze(ix.X, ix.Y, eps/math.Sqrt2*cellMargin)
			if err != nil {
				t.Fatal(err)
			}
			if tooLarge := raw.Side()*math.Sqrt2 > eps; (g == nil) != tooLarge {
				t.Fatalf("seed=%d eps=%g: decomposition offered = %v with returned side %g", seed, eps, g != nil, raw.Side())
			}
			if g == nil {
				continue
			}
			cols, rows := g.Shape()
			for r := int32(0); r < rows; r++ {
				for c := int32(0); c < cols; c++ {
					lo, hi := g.CellRange(r, c, c+1)
					for s := lo; s < hi; s++ {
						for u := s + 1; u < hi; u++ {
							if d := ix.Pts[g.SlotID(s)].DistSq(ix.Pts[g.SlotID(u)]); d > eps*eps {
								t.Fatalf("seed=%d eps=%g: cell (%d,%d) holds points %g apart", seed, eps, r, c, math.Sqrt(d))
							}
						}
					}
				}
			}
		}
	}
}
