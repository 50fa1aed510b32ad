package stdbscan

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/metrics"
)

// movingBlob emits a blob drifting across frames: frames observations at
// epochs 0..frames-1, the blob center moving by (vx, vy) per epoch.
func movingBlob(frames, perFrame int, x0, y0, vx, vy, sigma float64, rnd *rand.Rand) []Point {
	var pts []Point
	for f := 0; f < frames; f++ {
		cx, cy := x0+vx*float64(f), y0+vy*float64(f)
		for i := 0; i < perFrame; i++ {
			pts = append(pts, Point{
				X: cx + rnd.NormFloat64()*sigma,
				Y: cy + rnd.NormFloat64()*sigma,
				T: float64(f),
			})
		}
	}
	return pts
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Eps1: 1, Eps2: 1, MinPts: 4}).Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Params{
		{Eps1: 0, Eps2: 1, MinPts: 4},
		{Eps1: 1, Eps2: 0, MinPts: 4},
		{Eps1: 1, Eps2: 1, MinPts: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	if (Params{Eps1: 1, Eps2: 2, MinPts: 3}).String() == "" {
		t.Error("String empty")
	}
}

func TestTemporalSeparation(t *testing.T) {
	// Same location, two bursts far apart in time: spatial DBSCAN would
	// merge them; ST-DBSCAN with a tight Eps2 must split them.
	rnd := rand.New(rand.NewSource(1))
	var pts []Point
	for i := 0; i < 50; i++ {
		pts = append(pts, Point{X: rnd.NormFloat64() * 0.3, Y: rnd.NormFloat64() * 0.3, T: 0})
	}
	for i := 0; i < 50; i++ {
		pts = append(pts, Point{X: rnd.NormFloat64() * 0.3, Y: rnd.NormFloat64() * 0.3, T: 10})
	}
	ix := BuildIndex(pts)
	res, err := Run(ix, Params{Eps1: 1, Eps2: 2, MinPts: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("temporally split bursts: %d clusters, want 2", res.NumClusters)
	}
	// With a generous Eps2 they merge into one.
	res, _ = Run(ix, Params{Eps1: 1, Eps2: 100, MinPts: 4}, nil)
	if res.NumClusters != 1 {
		t.Errorf("generous eps2: %d clusters, want 1", res.NumClusters)
	}
}

func TestMovingObjectStaysOneCluster(t *testing.T) {
	// A drifting blob observed over 8 frames: consecutive frames overlap
	// spatially, so with Eps2 >= 1 the track forms one spatiotemporal
	// cluster even though frame 0 and frame 7 are spatially disjoint.
	rnd := rand.New(rand.NewSource(2))
	pts := movingBlob(8, 80, 0, 0, 1.5, 0, 0.4, rnd)
	ix := BuildIndex(pts)
	res, err := Run(ix, Params{Eps1: 1, Eps2: 1.5, MinPts: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Errorf("moving object: %d clusters, want 1 connected track", res.NumClusters)
	}
	// Eps2 < 1 breaks temporal connectivity: every frame its own cluster.
	res, _ = Run(ix, Params{Eps1: 1, Eps2: 0.5, MinPts: 4}, nil)
	if res.NumClusters != 8 {
		t.Errorf("frame-isolated: %d clusters, want 8", res.NumClusters)
	}
}

// TestRunMatchesBruteForce runs one Index at a small Eps1, then a larger one
// (the cell grid re-sides), then the small one again on the larger grid:
// every run must give the brute-force partition, and the two small runs the
// same labels.
func TestRunMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	var pts []Point
	pts = append(pts, movingBlob(5, 60, 0, 0, 2, 1, 0.5, rnd)...)
	pts = append(pts, movingBlob(5, 60, 30, 30, -1, 0, 0.5, rnd)...)
	for i := 0; i < 100; i++ {
		pts = append(pts, Point{X: rnd.Float64() * 50, Y: rnd.Float64() * 50, T: rnd.Float64() * 5})
	}
	ix := BuildIndex(pts)
	var first []int32
	for i, tc := range []struct{ eps1, side float64 }{{1.2, 1.2}, {3, 3}, {1.2, 3}} {
		p := Params{Eps1: tc.eps1, Eps2: 1.2, MinPts: 5}
		got, err := Run(ix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if side := ix.spatial.Grid().Side(); side != tc.side {
			t.Errorf("run %d at %v: grid side %v, want %v", i, p, side, tc.side)
		}
		want, err := RunBruteForce(pts, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotOrig := got.Remap(ix.Fwd())
		if gotOrig.NumClusters != want.NumClusters {
			t.Errorf("run %d at %v: clusters %d vs %d", i, p, gotOrig.NumClusters, want.NumClusters)
		}
		if d := cluster.DisagreementCount(gotOrig, want); d != 0 {
			t.Errorf("run %d at %v: %d disagreements", i, p, d)
		}
		if i == 0 {
			first = got.Labels
		} else if i == 2 && !slices.Equal(got.Labels, first) {
			t.Errorf("run %d at %v: labels differ from run 0 at the same parameters", i, p)
		}
	}
}

func TestRunEmptyAndDegenerate(t *testing.T) {
	ix := BuildIndex(nil)
	res, err := Run(ix, Params{Eps1: 1, Eps2: 1, MinPts: 4}, nil)
	if err != nil || res.Len() != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	ix = BuildIndex([]Point{{X: 1, Y: 1, T: 0}})
	res, _ = Run(ix, Params{Eps1: 1, Eps2: 1, MinPts: 2}, nil)
	if res.NumNoise() != 1 {
		t.Error("lone point should be noise")
	}
	if _, err := Run(ix, Params{}, nil); err == nil {
		t.Error("zero params accepted")
	}
}

func TestMetricsCounted(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	pts := movingBlob(3, 50, 0, 0, 1, 0, 0.3, rnd)
	ix := BuildIndex(pts)
	var m metrics.Counters
	if _, err := Run(ix, Params{Eps1: 1, Eps2: 1, MinPts: 4}, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().NeighborSearches; got != int64(len(pts)) {
		t.Errorf("searches = %d, want %d", got, len(pts))
	}
}

// TestNeighborSearchAllocationFree: a warmed NeighborSearch appends to dst
// and allocates nothing, and what it appends is the points within both
// radii, after whatever dst held.
func TestNeighborSearchAllocationFree(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	pts := movingBlob(4, 200, 0, 0, 0.5, 0, 0.4, rnd)
	ix := BuildIndex(pts)
	p := Params{Eps1: 0.5, Eps2: 1, MinPts: 4}
	if _, err := Run(ix, p, nil); err != nil { // sizes the cell grid for Eps1
		t.Fatal(err)
	}
	var m metrics.Counters
	dst := []int32{-7}
	for i := range pts {
		dst = ix.NeighborSearch(int32(i), p, &m, dst[:1])
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range pts {
			dst = ix.NeighborSearch(int32(i), p, &m, dst[:1])
		}
	}); allocs != 0 {
		t.Errorf("a warmed NeighborSearch allocates %v times per pass", allocs)
	}
	for i := int32(0); i < int32(len(pts)); i += 37 {
		dst = ix.NeighborSearch(i, p, nil, dst[:1])
		var want []int32
		for j := range pts {
			dx, dy := ix.spatial.X[i]-ix.spatial.X[j], ix.spatial.Y[i]-ix.spatial.Y[j]
			if dx*dx+dy*dy <= p.Eps1*p.Eps1 && math.Abs(ix.times[i]-ix.times[j]) <= p.Eps2 {
				want = append(want, int32(j))
			}
		}
		got := slices.Clone(dst[1:])
		slices.Sort(got)
		if dst[0] != -7 || !slices.Equal(got, want) {
			t.Fatalf("point %d: got %v after %d, want %v", i, got, dst[0], want)
		}
	}
}
