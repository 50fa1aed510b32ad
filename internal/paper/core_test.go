package paper

import (
	"math/rand"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/variant"
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

func TestRunFromScratchWhenNoPrev(t *testing.T) {
	ix := dbscan.BuildIndex(blobs(2, 100, 20, 20, 0.5, 1), dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	res, stats, err := Run(ix, dbscan.Params{Eps: 0.5, MinPts: 4}, nil, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FromScratch {
		t.Error("nil prev should cluster from scratch")
	}
	if stats.PointsReused != 0 || stats.FractionReused != 0 {
		t.Errorf("scratch run reported reuse: %+v", stats)
	}
	if res.NumClusters < 1 {
		t.Errorf("clusters = %d", res.NumClusters)
	}
}

func TestRunFromScratchWhenPrevHasNoClusters(t *testing.T) {
	pts := blobs(2, 100, 20, 20, 0.5, 2)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	// A prev result that found only noise.
	prev := cluster.NewResult(ix.Len())
	for i := range prev.Labels {
		prev.Labels[i] = cluster.Noise
	}
	_, stats, err := Run(ix, dbscan.Params{Eps: 0.5, MinPts: 4}, prev, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FromScratch {
		t.Error("all-noise prev should fall back to scratch")
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	ix := dbscan.BuildIndex(blobs(1, 50, 0, 10, 0.5, 3), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.5, MinPts: 4}, nil)
	if _, _, err := Run(ix, dbscan.Params{Eps: -1, MinPts: 4}, prev, ClusDefault, nil); err == nil {
		t.Error("bad params accepted")
	}
}

// runPair clusters with prevParams from scratch, then target with reuse,
// and returns (reused result, scratch result for target, stats).
func runPair(t *testing.T, pts []geom.Point, prevParams, target dbscan.Params, scheme Scheme) (*cluster.Result, *cluster.Result, Stats) {
	t.Helper()
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	prev, err := dbscan.Run(ix, prevParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Run(ix, target, prev, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dbscan.Run(ix, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got, want, stats
}

func TestReuseMatchesScratchDBSCAN(t *testing.T) {
	pts := blobs(4, 200, 150, 30, 0.7, 10)
	cases := []struct {
		name         string
		prev, target dbscan.Params
	}{
		{"same-eps-lower-minpts", dbscan.Params{Eps: 0.6, MinPts: 16}, dbscan.Params{Eps: 0.6, MinPts: 4}},
		{"bigger-eps-same-minpts", dbscan.Params{Eps: 0.4, MinPts: 8}, dbscan.Params{Eps: 0.8, MinPts: 8}},
		{"bigger-eps-lower-minpts", dbscan.Params{Eps: 0.4, MinPts: 16}, dbscan.Params{Eps: 0.7, MinPts: 4}},
		{"identical", dbscan.Params{Eps: 0.5, MinPts: 8}, dbscan.Params{Eps: 0.5, MinPts: 8}},
	}
	for _, c := range cases {
		for _, scheme := range Schemes {
			t.Run(c.name+"/"+scheme.String(), func(t *testing.T) {
				got, want, stats := runPair(t, pts, c.prev, c.target, scheme)
				if stats.PointsReused == 0 {
					t.Error("expected nonzero reuse")
				}
				// Allow a tiny border-point disagreement budget (paper
				// quality ≥ 0.998 => ≤0.2% of points).
				d := cluster.DisagreementCount(got, want)
				if d > len(pts)/200 {
					t.Errorf("disagreements = %d of %d", d, len(pts))
				}
				if got.NumClusters != want.NumClusters {
					t.Errorf("clusters: reuse %d vs scratch %d", got.NumClusters, want.NumClusters)
				}
				if got.NumNoise() != want.NumNoise() {
					t.Errorf("noise: reuse %d vs scratch %d", got.NumNoise(), want.NumNoise())
				}
			})
		}
	}
}

func TestReusedClustersOnlyGrow(t *testing.T) {
	// Inclusion criteria guarantee: every point of a reused (non-destroyed)
	// cluster stays clustered in the new result.
	pts := blobs(3, 200, 100, 25, 0.6, 20)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.4, MinPts: 12}, nil)
	got, _, err := Run(ix, dbscan.Params{Eps: 0.6, MinPts: 4}, prev, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range prev.Labels {
		if l > 0 && got.Labels[i] <= 0 {
			t.Fatalf("point %d was clustered in prev but lost in reuse result", i)
		}
	}
	if got.NumClustered() < prev.NumClustered() {
		t.Errorf("clustered count shrank: %d -> %d", prev.NumClustered(), got.NumClustered())
	}
}

func TestClusterMergeDestroysSeeds(t *testing.T) {
	// Two dense blobs 3 apart: separate at eps=1, merged at eps=4.
	pts := make([]geom.Point, 0, 200)
	rnd := rand.New(rand.NewSource(30))
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{X: rnd.NormFloat64() * 0.3, Y: rnd.NormFloat64() * 0.3})
	}
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{X: 3 + rnd.NormFloat64()*0.3, Y: rnd.NormFloat64() * 0.3})
	}
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.5, MinPts: 4}, nil)
	if prev.NumClusters != 2 {
		t.Fatalf("setup: prev clusters = %d, want 2", prev.NumClusters)
	}
	var m metrics.Counters
	got, stats, err := Run(ix, dbscan.Params{Eps: 4, MinPts: 4}, prev, ClusDefault, &m)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != 1 {
		t.Errorf("merged clusters = %d, want 1", got.NumClusters)
	}
	if stats.ClustersDestroyed != 1 {
		t.Errorf("destroyed = %d, want 1", stats.ClustersDestroyed)
	}
	if stats.ClustersReused != 1 {
		t.Errorf("reused = %d, want 1", stats.ClustersReused)
	}
	if m.Snapshot().ClustersDestroyed != 1 {
		t.Error("metrics did not record destruction")
	}
}

func TestReuseSkipsSearchesOnCopiedPoints(t *testing.T) {
	// The reuse win: ε-searches with reuse must be well below |D| when
	// identical parameters are reused (only edge verification remains).
	pts := blobs(3, 300, 50, 25, 0.5, 40)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	p := dbscan.Params{Eps: 0.5, MinPts: 4}

	var mScratch metrics.Counters
	prev, _ := dbscan.Run(ix, p, &mScratch)
	scratchSearches := mScratch.Snapshot().NeighborSearches

	var mReuse metrics.Counters
	_, stats, err := Run(ix, p, prev, ClusDensity, &mReuse)
	if err != nil {
		t.Fatal(err)
	}
	reuseSearches := mReuse.Snapshot().NeighborSearches
	if reuseSearches >= scratchSearches {
		t.Errorf("reuse searches %d >= scratch searches %d", reuseSearches, scratchSearches)
	}
	if stats.FractionReused < 0.5 {
		t.Errorf("fraction reused = %g, expected > 0.5 on blob data", stats.FractionReused)
	}
}

func TestFractionReusedBounds(t *testing.T) {
	pts := blobs(2, 200, 200, 20, 0.5, 50)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.4, MinPts: 8}, nil)
	_, stats, err := Run(ix, dbscan.Params{Eps: 0.5, MinPts: 4}, prev, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FractionReused < 0 || stats.FractionReused > 1 {
		t.Errorf("fraction = %g out of [0,1]", stats.FractionReused)
	}
	if stats.PointsReused != int(float64(ix.Len())*stats.FractionReused+0.5) {
		t.Errorf("fraction inconsistent with count: %+v (n=%d)", stats, ix.Len())
	}
}

func TestReuseAcrossChainOfVariants(t *testing.T) {
	// Chain reuse: v1 scratch -> v2 reuses v1 -> v3 reuses v2; the final
	// result must still match scratch DBSCAN.
	pts := blobs(3, 250, 100, 25, 0.6, 60)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	p1 := dbscan.Params{Eps: 0.3, MinPts: 16}
	p2 := dbscan.Params{Eps: 0.5, MinPts: 8}
	p3 := dbscan.Params{Eps: 0.8, MinPts: 4}

	r1, _ := dbscan.Run(ix, p1, nil)
	r2, _, err := Run(ix, p2, r1, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	r3, _, err := Run(ix, p3, r2, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dbscan.Run(ix, p3, nil)
	if d := cluster.DisagreementCount(r3, want); d > len(pts)/200 {
		t.Errorf("chained reuse disagreements = %d", d)
	}
}

func TestRunEmptyDataset(t *testing.T) {
	ix := dbscan.BuildIndex(nil, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	res, stats, err := Run(ix, dbscan.Params{Eps: 1, MinPts: 4}, nil, ClusDefault, nil)
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	if stats.FractionReused != 0 {
		t.Error("empty dataset fraction should be 0")
	}
}

func TestChooseSource(t *testing.T) {
	vs := variant.Product([]float64{0.2, 0.4, 0.6}, []int{32, 28, 24, 20})
	norm := variant.NewNormalizer(vs)
	target := dbscan.Params{Eps: 0.6, MinPts: 20}

	completed := []dbscan.Params{
		{Eps: 0.2, MinPts: 32},
		{Eps: 0.6, MinPts: 24},
		{Eps: 0.4, MinPts: 20},
	}
	// Paper example: prefer (0.6,24) over (0.2,32).
	if got := ChooseSource(target, completed, norm); got != 1 {
		t.Errorf("ChooseSource = %d, want 1 (0.6,24)", got)
	}
	// Nothing reusable: completed variants all have bigger eps or smaller minpts.
	if got := ChooseSource(dbscan.Params{Eps: 0.1, MinPts: 40}, completed, norm); got != -1 {
		t.Errorf("ChooseSource = %d, want -1", got)
	}
	if got := ChooseSource(target, nil, norm); got != -1 {
		t.Errorf("empty completed: %d, want -1", got)
	}
}

func TestSchemesAllProduceValidResults(t *testing.T) {
	pts := blobs(5, 150, 100, 40, 0.8, 70)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.5, MinPts: 12}, nil)
	want, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.7, MinPts: 4}, nil)
	for _, scheme := range Schemes {
		got, stats, err := Run(ix, dbscan.Params{Eps: 0.7, MinPts: 4}, prev, scheme, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := cluster.DisagreementCount(got, want); d > len(pts)/200 {
			t.Errorf("%v disagreements = %d", scheme, d)
		}
		if stats.ClustersReused+stats.ClustersDestroyed != prev.NumClusters {
			t.Errorf("%v: reused %d + destroyed %d != prev clusters %d",
				scheme, stats.ClustersReused, stats.ClustersDestroyed, prev.NumClusters)
		}
	}
}

func TestAllLabelsAssignedAfterReuse(t *testing.T) {
	// Every point must end Noise or in a cluster — never Unclassified.
	pts := blobs(3, 200, 150, 25, 0.6, 80)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.4, MinPts: 10}, nil)
	got, _, err := Run(ix, dbscan.Params{Eps: 0.6, MinPts: 4}, prev, ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range got.Labels {
		if l == cluster.Unclassified {
			t.Fatalf("point %d left unclassified", i)
		}
		if l > int32(got.NumClusters) {
			t.Fatalf("point %d has label %d > NumClusters %d", i, l, got.NumClusters)
		}
	}
}
