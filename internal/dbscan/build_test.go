package dbscan

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/tec"
)

// sw1Field is the benchmark suite's SW1 field (the configuration of
// tec.SW(1, ·)) of n points in a shuffled order.
func sw1Field(tb testing.TB, n int) []geom.Point {
	tb.Helper()
	ds, err := tec.Simulate(tec.Config{N: n, Seed: 0x5157 + 0x9E37, Waves: 6, Storms: 3, Sites: 40, Name: "SW1"})
	if err != nil {
		tb.Fatal(err)
	}
	pts := ds.Points
	rand.New(rand.NewSource(1)).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var (
	sinkIndex *Index
	sinkGrid  *cellGrid
)

// BenchmarkBuildIndex times the three builds a grid-kind index pays before
// its first from-scratch run, on the SW1 field at the suite's two dataset
// sizes and ε = 0.4 (scratch-512k's): the bin sort with its SoA copy
// (BuildIndex), the ε search grid (EnsureGrid) and the ε/√2 cell
// decomposition the cell-major runner walks.
func BenchmarkBuildIndex(b *testing.B) {
	const eps = 0.4
	for _, n := range []int{20_000, 512 << 10} {
		pts := sw1Field(b, n)
		ix := BuildIndex(pts, IndexOptions{})
		if err := ix.EnsureGrid(eps); err != nil {
			b.Fatal(err)
		}
		// fresh is a grid-kind index over ix's arrays with nothing built.
		fresh := func() *Index { return &Index{Pts: ix.Pts, X: ix.X, Y: ix.Y, Fwd: ix.Fwd} }
		for _, sub := range []struct {
			name string
			run  func()
		}{
			{"BuildIndex", func() { sinkIndex = BuildIndex(pts, IndexOptions{}) }},
			{"EnsureGrid", func() {
				if err := fresh().EnsureGrid(eps); err != nil {
					b.Fatal(err)
				}
			}},
			{"decomposition", func() {
				f := fresh()
				f.grid.Store(ix.Grid())
				sinkGrid = f.cellDecomposition(eps)
			}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, sub.name), func(b *testing.B) {
				b.ReportAllocs()
				var bytes uint64
				for i := 0; i < b.N; i++ {
					bytes += allocBytes(sub.run)
				}
				b.ReportMetric(float64(bytes)/float64(b.N)/float64(n), "B/point")
			})
		}
	}
}

// TestBuildIndexAllocBytes pins the heap BuildIndex allocates per point on
// the 512Ki-point SW1 field at GOMAXPROCS 2: at most the 88.09 B/point the
// one-worker build with a separate SoA gather allocated. That is the
// sort's radix ping-pong (2 × 24 B), the sorted copy (16 B), Fwd (8 B) and
// X, Y (16 B), plus the one-worker build's per-bin scratch, which the
// parallel build replaces with per-worker radix histograms.
func TestBuildIndexAllocBytes(t *testing.T) {
	const n, limit = 512 << 10, 88.09
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pts := sw1Field(t, n)
	perPoint := float64(allocBytes(func() { sinkIndex = BuildIndex(pts, IndexOptions{}) })) / n
	if perPoint > limit {
		t.Fatalf("BuildIndex allocated %.3f B/point, want ≤ %.2f", perPoint, limit)
	}
	t.Logf("%.3f B/point", perPoint)
}
