package optics

import (
	"container/heap"
	"math/rand"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
)

func blobs(k, m, noise int, extent, sigma float64, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, k*m+noise)
	for c := 0; c < k; c++ {
		cx, cy := rnd.Float64()*extent, rnd.Float64()*extent
		for i := 0; i < m; i++ {
			pts = append(pts, geom.Point{
				X: cx + rnd.NormFloat64()*sigma,
				Y: cy + rnd.NormFloat64()*sigma,
			})
		}
	}
	for i := 0; i < noise; i++ {
		pts = append(pts, geom.Point{X: rnd.Float64() * extent, Y: rnd.Float64() * extent})
	}
	return pts
}

func TestRunValidation(t *testing.T) {
	ix := dbscan.BuildIndex(blobs(1, 20, 0, 10, 0.5, 1), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	if _, err := Run(ix, 0, 4, nil); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := Run(ix, 1, 0, nil); err == nil {
		t.Error("minpts=0 accepted")
	}
}

func TestOrderingCoversAllPointsOnce(t *testing.T) {
	pts := blobs(3, 100, 50, 20, 0.5, 2)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	ord, err := Run(ix, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ord.Entries) != len(pts) {
		t.Fatalf("ordering covers %d of %d", len(ord.Entries), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, e := range ord.Entries {
		if seen[e.Point] {
			t.Fatalf("point %d appears twice", e.Point)
		}
		seen[e.Point] = true
	}
}

func TestCoreDistProperties(t *testing.T) {
	pts := blobs(2, 150, 30, 15, 0.4, 3)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	ord, _ := Run(ix, 1.5, 4, nil)
	for _, e := range ord.Entries {
		if e.CoreDist != Undefined && e.CoreDist > 1.5 {
			t.Fatalf("core distance %g exceeds delta", e.CoreDist)
		}
		if e.Reachability != Undefined && e.CoreDist != Undefined &&
			e.Reachability < 0 {
			t.Fatalf("negative reachability")
		}
	}
}

func TestExtractRejectsLargeEps(t *testing.T) {
	ix := dbscan.BuildIndex(blobs(1, 50, 0, 10, 0.5, 4), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	ord, _ := Run(ix, 1, 4, nil)
	if _, err := ord.ExtractDBSCAN(2); err == nil {
		t.Error("eps > delta accepted")
	}
}

func TestExtractMatchesDBSCANAcrossEps(t *testing.T) {
	// The core promise: one OPTICS run at delta reproduces DBSCAN for every
	// eps <= delta (up to border-point ties).
	pts := blobs(4, 150, 100, 25, 0.5, 5)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	const minPts = 4
	ord, err := Run(ix, 2.0, minPts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.3, 0.5, 0.8, 1.2, 2.0} {
		got, err := ord.ExtractDBSCAN(eps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dbscan.Run(ix, dbscan.Params{Eps: eps, MinPts: minPts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != want.NumClusters {
			t.Errorf("eps=%g: OPTICS %d clusters vs DBSCAN %d",
				eps, got.NumClusters, want.NumClusters)
		}
		if d := cluster.DisagreementCount(got, want); d > len(pts)/100 {
			t.Errorf("eps=%g: disagreements = %d", eps, d)
		}
	}
}

func TestAllNoise(t *testing.T) {
	pts := make([]geom.Point, 10)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 100, Y: 0}
	}
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	ord, _ := Run(ix, 1, 3, nil)
	res, _ := ord.ExtractDBSCAN(1)
	if res.NumClusters != 0 || res.NumNoise() != 10 {
		t.Errorf("all-noise extract: %v", res)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := dbscan.BuildIndex(nil, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	ord, err := Run(ix, 1, 4, nil)
	if err != nil || len(ord.Entries) != 0 {
		t.Fatalf("empty: %v %v", ord, err)
	}
	res, err := ord.ExtractDBSCAN(1)
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty extract: %v %v", res, err)
	}
}

func TestMetricsCounted(t *testing.T) {
	pts := blobs(2, 100, 20, 15, 0.5, 6)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	var m metrics.Counters
	if _, err := Run(ix, 1.5, 4, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().NeighborSearches; got != int64(len(pts)) {
		t.Errorf("searches = %d, want %d (one per point)", got, len(pts))
	}
}

func TestSeedQueueOrdering(t *testing.T) {
	// Reachability-ordered pops with decrease-key.
	q := &seedQueue{pos: make([]int, 5)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	for _, it := range []seedItem{{point: 0, reach: 5}, {point: 1, reach: 3}, {point: 2, reach: 4}} {
		heap.Push(q, it)
	}
	q.decrease(0, 1)
	var order []int32
	for q.Len() > 0 {
		order = append(order, heap.Pop(q).(seedItem).point)
	}
	want := []int32{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", order, want)
		}
	}
	// decrease on an absent point must be a no-op.
	q.decrease(4, 0)
}
