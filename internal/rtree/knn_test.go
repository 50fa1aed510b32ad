package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

// bruteKNN is the oracle: exact k nearest by linear scan.
func bruteKNN(pts []geom.Point, q geom.Point, k int) []Neighbor {
	all := make([]Neighbor, len(pts))
	for i, p := range pts {
		all[i] = Neighbor{Index: int32(i), DistSq: q.DistSq(p)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].DistSq != all[b].DistSq {
			return all[a].DistSq < all[b].DistSq
		}
		return all[a].Index < all[b].Index
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	for _, r := range []int{1, 8, 70} {
		pts, _, _, _ := grid.Sort(randomPoints(1500, 50, 60), 1)
		tr := BulkLoad(pts, nil, nil, Options{R: r})
		rnd := rand.New(rand.NewSource(int64(61 + r)))
		for trial := 0; trial < 40; trial++ {
			q := geom.Point{X: rnd.Float64() * 50, Y: rnd.Float64() * 50}
			k := 1 + rnd.Intn(20)
			got := tr.NearestK(q, k)
			want := bruteKNN(pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("r=%d k=%d: got %d results, want %d", r, k, len(got), len(want))
			}
			for i := range want {
				// Both sides break distance ties by index, so the lists
				// are identical.
				if got[i] != want[i] {
					t.Fatalf("r=%d k=%d rank %d: %+v, want %+v", r, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNearestKEdgeCases(t *testing.T) {
	empty := BulkLoad(nil, nil, nil, Options{})
	if got := empty.NearestK(geom.Point{X: 0, Y: 0}, 5); got != nil {
		t.Errorf("empty tree: %v", got)
	}
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	tr := BulkLoad(pts, nil, nil, Options{})
	if got := tr.NearestK(geom.Point{X: 0, Y: 0}, 0); got != nil {
		t.Errorf("k=0: %v", got)
	}
	// k larger than the point count returns everything.
	got := tr.NearestK(geom.Point{X: 0, Y: 0}, 10)
	if len(got) != 2 {
		t.Fatalf("k>n: %d results", len(got))
	}
	if got[0].Index != 0 || got[1].Index != 1 {
		t.Errorf("order: %v", got)
	}
}

func TestNearestKSelf(t *testing.T) {
	// Querying at an indexed point: that point is rank 0 with distance 0.
	pts, _, _, _ := grid.Sort(randomPoints(300, 30, 62), 1)
	tr := BulkLoad(pts, nil, nil, Options{R: 16})
	for i := 0; i < 20; i++ {
		got := tr.NearestK(pts[i], 1)
		if len(got) != 1 || got[0].DistSq != 0 {
			t.Fatalf("self query %d: %v", i, got)
		}
	}
}

func TestNearestKAscendingOrder(t *testing.T) {
	pts, _, _, _ := grid.Sort(randomPoints(800, 40, 63), 1)
	tr := BulkLoad(pts, nil, nil, Options{R: 32})
	got := tr.NearestK(geom.Point{X: 20, Y: 20}, 50)
	for i := 1; i < len(got); i++ {
		if got[i].DistSq < got[i-1].DistSq {
			t.Fatalf("results not ascending at %d", i)
		}
	}
}
