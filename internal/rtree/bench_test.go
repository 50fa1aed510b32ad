package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

func benchPoints(n int) []geom.Point {
	rng := rand.New(rand.NewSource(0xF1A7))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	sorted, _, _, _ := grid.Sort(pts, 1)
	return sorted
}

func benchQueries() []geom.Point {
	rng := rand.New(rand.NewSource(0x9E75))
	qs := make([]geom.Point, 1024)
	for i := range qs {
		qs[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return qs
}

// BenchmarkEpsSearch measures the full ε-neighborhood search (traverse +
// distance filter) across the paper's leaf-occupancy range and two
// dataset sizes.
func BenchmarkEpsSearch(b *testing.B) {
	const eps = 1.5
	queries := benchQueries()
	for _, n := range []int{10_000, 100_000} {
		sorted := benchPoints(n)
		for _, r := range []int{1, 70, 110} {
			fl := BulkLoad(sorted, nil, nil, Options{R: r})
			b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
				dst := make([]int32, 0, 1024)
				for i := 0; i < b.N; i++ {
					dst, _, _ = fl.EpsSearch(queries[i%len(queries)], eps, dst[:0])
				}
			})
		}
	}
}

// BenchmarkSearchCandidates measures the raw candidate sweep (no distance
// filter) — the T_high cluster-MBB sweep workload of Algorithm 3.
func BenchmarkSearchCandidates(b *testing.B) {
	sorted := benchPoints(100_000)
	queries := benchQueries()
	for _, r := range []int{1, 70} {
		fl := BulkLoad(sorted, nil, nil, Options{R: r})
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			dst := make([]int32, 0, 4096)
			for i := 0; i < b.N; i++ {
				q := geom.QueryMBB(queries[i%len(queries)], 4)
				dst, _ = fl.SearchCandidates(q, dst[:0])
			}
		})
	}
}

// BenchmarkBulkLoad measures the build itself, so its one-time cost can be
// weighed against the per-query savings.
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		sorted := benchPoints(n)
		for _, r := range []int{1, 70} {
			b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if BulkLoad(sorted, nil, nil, Options{R: r}).Len() != n {
						b.Fatal("bad build")
					}
				}
			})
		}
	}
}

// TestEpsSearchZeroAlloc asserts the flat ε-search's steady state stays
// off the heap entirely once the destination buffer has warmed up.
func TestEpsSearchZeroAlloc(t *testing.T) {
	fl := BulkLoad(benchPoints(20_000), nil, nil, Options{R: 70})
	queries := benchQueries()
	dst := make([]int32, 0, 4096)
	for _, p := range queries { // warm dst to its high-water mark
		dst, _, _ = fl.EpsSearch(p, 2, dst[:0])
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		dst, _, _ = fl.EpsSearch(queries[i%len(queries)], 2, dst[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("EpsSearch allocated %.1f times per run, want 0", allocs)
	}
}
