package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/tec"
)

// sw1Field is the benchmark suite's SW1 field (the configuration of
// tec.SW(1, ·)) of n points in a shuffled order, the shape every index
// build sorts.
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

var sinkFwd []int

// BenchmarkSort times the unit-width bin sort of an index build on the
// SW1 field at the suite's two dataset sizes.
func BenchmarkSort(b *testing.B) {
	for _, n := range []int{20_000, 512 << 10} {
		pts := sw1Field(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, sinkFwd, _, _ = Sort(pts, 1)
			}
		})
	}
}
