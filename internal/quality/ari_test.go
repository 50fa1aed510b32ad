package quality

import (
	"math"
	"math/rand"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
)

func TestARIIdentical(t *testing.T) {
	a := res(1, 1, 2, 2, cluster.Noise)
	got, err := ARI(a, a)
	if err != nil || got != 1 {
		t.Errorf("self ARI = %g, %v", got, err)
	}
}

func TestARIRenumbered(t *testing.T) {
	a := res(1, 1, 2, 2, cluster.Noise)
	b := res(2, 2, 1, 1, cluster.Noise)
	if got, _ := ARI(a, b); got != 1 {
		t.Errorf("renumbered ARI = %g", got)
	}
}

func TestARILengthMismatch(t *testing.T) {
	if _, err := ARI(res(1), res(1, 2)); err == nil {
		t.Error("mismatch accepted")
	}
}

func TestARIEmpty(t *testing.T) {
	if got, _ := ARI(res(), res()); got != 1 {
		t.Errorf("empty ARI = %g", got)
	}
}

func TestARIDisagreementLowersScore(t *testing.T) {
	a := res(1, 1, 1, 1, 2, 2, 2, 2)
	same, _ := ARI(a, a)
	// Swap two points between the clusters.
	b := res(1, 1, 1, 2, 1, 2, 2, 2)
	worse, _ := ARI(a, b)
	if !(worse < same) {
		t.Errorf("ARI did not drop: %g vs %g", worse, same)
	}
	if worse <= 0 {
		t.Errorf("mild disagreement should stay positive: %g", worse)
	}
}

func TestARIIndependentPartitionsNearZero(t *testing.T) {
	// Random labels vs random labels over many points: expect ~0.
	rnd := rand.New(rand.NewSource(1))
	n := 2000
	la := make([]int32, n)
	lb := make([]int32, n)
	for i := 0; i < n; i++ {
		la[i] = int32(rnd.Intn(5) + 1)
		lb[i] = int32(rnd.Intn(5) + 1)
	}
	a := &cluster.Result{Labels: la, NumClusters: 5}
	b := &cluster.Result{Labels: lb, NumClusters: 5}
	got, _ := ARI(a, b)
	if math.Abs(got) > 0.05 {
		t.Errorf("independent ARI = %g, want ~0", got)
	}
}

func TestARIAllSingletons(t *testing.T) {
	a := res(cluster.Noise, cluster.Noise, cluster.Noise)
	if got, _ := ARI(a, a); got != 1 {
		t.Errorf("all-noise self ARI = %g", got)
	}
	b := res(1, 1, 1)
	got, _ := ARI(a, b)
	if got >= 1 {
		t.Errorf("noise vs one-cluster ARI = %g, want < 1", got)
	}
}

func TestARIAgreesWithJaccardOnRealRuns(t *testing.T) {
	// Two DBSCAN runs at nearby parameters: both metrics should be high;
	// at wildly different parameters both should drop.
	rnd := rand.New(rand.NewSource(2))
	var pts []geom.Point
	for c := 0; c < 3; c++ {
		cx, cy := rnd.Float64()*40, rnd.Float64()*40
		for i := 0; i < 200; i++ {
			pts = append(pts, geom.Point{X: cx + rnd.NormFloat64()*0.5, Y: cy + rnd.NormFloat64()*0.5})
		}
	}
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{X: rnd.Float64() * 40, Y: rnd.Float64() * 40})
	}
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	base, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.6, MinPts: 4}, nil)
	near, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.65, MinPts: 4}, nil)
	far, _ := dbscan.Run(ix, dbscan.Params{Eps: 40, MinPts: 4}, nil)

	ariNear, _ := ARI(base, near)
	ariFar, _ := ARI(base, far)
	if ariNear < 0.9 {
		t.Errorf("near-params ARI = %g, want high", ariNear)
	}
	if ariFar >= ariNear {
		t.Errorf("far-params ARI %g should be below near %g", ariFar, ariNear)
	}
}
