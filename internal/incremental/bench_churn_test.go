package incremental

import (
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/tec"
)

// BenchmarkWindow measures sliding-window streaming throughput — the
// EXPERIMENTS.md "streaming churn" row. Each iteration streams 8 TEC
// batches of 1500 observations through the clusterer, expiring the
// oldest insertions to hold a 6000-point live window, so batches 4+ are
// the delete-heavy steady state.

func windowBatch(b *testing.B, batch int) []geom.Point {
	b.Helper()
	ds, err := tec.Simulate(tec.Config{
		N: 1500, Seed: 99, Time: float64(batch) * 0.25, Name: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds.Points
}

func BenchmarkWindow(b *testing.B) {
	params := dbscan.Params{Eps: 2.5, MinPts: 8}
	batches := make([][]geom.Point, 8)
	for i := range batches {
		batches[i] = windowBatch(b, i)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		c, err := New(params, nil)
		if err != nil {
			b.Fatal(err)
		}
		oldest := 0
		for _, pts := range batches {
			c.InsertBatch(pts)
			for c.LiveLen() > 6000 {
				if err := c.Delete(oldest); err != nil {
					b.Fatal(err)
				}
				oldest++
			}
		}
	}
}
