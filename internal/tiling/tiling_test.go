package tiling_test

import (
	"math/rand"
	"testing"

	"vdbscan/internal/gridindex"
	"vdbscan/internal/tiling"
)

func freeze(t *testing.T, n int, extent, side float64, seed int64, skew bool) *gridindex.Flat {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if skew && i%4 != 0 {
			// Three quarters of the mass in one corner blob.
			xs[i] = rnd.NormFloat64() * extent / 20
			ys[i] = rnd.NormFloat64() * extent / 20
		} else {
			xs[i] = rnd.Float64() * extent
			ys[i] = rnd.Float64() * extent
		}
	}
	g, err := gridindex.Freeze(xs, ys, side)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBuildCoversEveryCellOnce: the tile rectangles partition the grid —
// every cell in exactly one tile, every point owned by exactly one tile,
// and Counts agreeing with the rectangles.
func TestBuildCoversEveryCellOnce(t *testing.T) {
	for _, skew := range []bool{false, true} {
		g := freeze(t, 5000, 100, 1.5, 11, skew)
		cols, rows := g.Shape()
		for _, target := range []int{2, 3, 4, 7, 9, 16} {
			p := tiling.Build(g, target)
			if p == nil {
				t.Fatalf("skew=%v target=%d: nil partition", skew, target)
			}
			cellOwner := make([]int, int(cols)*int(rows))
			for i := range cellOwner {
				cellOwner[i] = -1
			}
			for ti, rect := range p.Tiles() {
				for r := rect.R0; r < rect.R1; r++ {
					for c := rect.C0; c < rect.C1; c++ {
						i := int(r)*int(cols) + int(c)
						if cellOwner[i] != -1 {
							t.Fatalf("skew=%v target=%d: cell (%d,%d) in tiles %d and %d",
								skew, target, r, c, cellOwner[i], ti)
						}
						cellOwner[i] = ti
					}
				}
			}
			for i, o := range cellOwner {
				if o == -1 {
					t.Fatalf("skew=%v target=%d: cell %d uncovered", skew, target, i)
				}
			}
			// Counts agree with the rectangles' CSR runs.
			counts := make([]int, p.Len())
			for ti, rect := range p.Tiles() {
				for r := rect.R0; r < rect.R1; r++ {
					lo, hi := g.CellRange(r, rect.C0, rect.C1)
					counts[ti] += int(hi - lo)
				}
			}
			total := 0
			for ti, want := range p.Counts() {
				if counts[ti] != want {
					t.Fatalf("skew=%v target=%d tile=%d: cell-run count %d, Counts %d",
						skew, target, ti, counts[ti], want)
				}
				total += want
			}
			if total != g.Len() {
				t.Fatalf("skew=%v target=%d: counts sum %d want %d", skew, target, total, g.Len())
			}
		}
	}
}

// TestBuildBalance: no tile dominates — the largest tile stays well
// under the whole dataset, and on skewed data the winning partitioner
// still splits the hot blob instead of fencing it into one tile.
func TestBuildBalance(t *testing.T) {
	for _, skew := range []bool{false, true} {
		g := freeze(t, 20000, 200, 2.0, 23, skew)
		for _, target := range []int{4, 9, 16} {
			p := tiling.Build(g, target)
			if p == nil {
				t.Fatalf("skew=%v target=%d: nil partition", skew, target)
			}
			if p.Len() < 2 {
				t.Fatalf("skew=%v target=%d: only %d tiles", skew, target, p.Len())
			}
			maxPts := p.MaxTilePoints()
			// A perfect split would give n/target; allow generous slack for
			// cell granularity, but a tile holding > 3/4 of everything means
			// the partitioner failed to split the mass.
			if maxPts > g.Len()*3/4 {
				t.Errorf("skew=%v target=%d kind=%s: max tile holds %d of %d points",
					skew, target, p.Kind(), maxPts, g.Len())
			}
		}
	}
}

// TestBuildDegenerate: inputs where tiling is not applicable return nil
// rather than a broken partition.
func TestBuildDegenerate(t *testing.T) {
	if p := tiling.Build(nil, 4); p != nil {
		t.Error("nil grid accepted")
	}
	g := freeze(t, 100, 10, 1.0, 5, false)
	if p := tiling.Build(g, 1); p != nil {
		t.Error("target=1 accepted")
	}
	if p := tiling.Build(g, 0); p != nil {
		t.Error("target=0 accepted")
	}
	// Single-cell grid: all points in one cell, nothing to split.
	xs := []float64{1, 1.0001, 1.0002}
	ys := []float64{2, 2.0001, 2.0002}
	one, err := gridindex.Freeze(xs, ys, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cols, rows := one.Shape(); int(cols)*int(rows) == 1 {
		if p := tiling.Build(one, 4); p != nil {
			t.Errorf("single-cell grid produced %d tiles", p.Len())
		}
	}
	// Empty grid.
	empty, err := gridindex.Freeze(nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := tiling.Build(empty, 4); p != nil {
		t.Error("empty grid accepted")
	}
}

// TestBuildRowGrid: a grid only one cell tall can still be tiled (kd
// degenerates to column spans).
func TestBuildRowGrid(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rnd.Float64() * 100
		ys[i] = rnd.Float64() * 0.5
	}
	g, err := gridindex.Freeze(xs, ys, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, rows := g.Shape(); rows != 1 {
		t.Skipf("grid not single-row (rows=%d)", rows)
	}
	p := tiling.Build(g, 4)
	if p == nil || p.Len() < 2 {
		t.Fatalf("single-row grid: partition %v", p)
	}
}

func TestAuto(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{100, 8, 1},                        // too small to shard
		{4 * tiling.MinTilePoints, 1, 1},   // one worker: untiled
		{4 * tiling.MinTilePoints, 4, 4},   // balanced
		{4 * tiling.MinTilePoints, 16, 4},  // capped by point floor
		{100 * tiling.MinTilePoints, 8, 8}, // one tile per worker
		{4*tiling.MinTilePoints - 1, 8, 1}, // just under the floor
		{1_000_000, 6, 6},                  // big data, few workers
		{2 * tiling.MinTilePoints, 2, 1},   // below 4× floor
	}
	for _, c := range cases {
		if got := tiling.Auto(c.n, c.workers); got != c.want {
			t.Errorf("Auto(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}
