package kdist

import (
	"math"
	"math/rand"
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
)

func blobsAndNoise(seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	var pts []geom.Point
	for c := 0; c < 3; c++ {
		cx, cy := rnd.Float64()*80, rnd.Float64()*80
		for i := 0; i < 300; i++ {
			pts = append(pts, geom.Point{
				X: cx + rnd.NormFloat64()*0.8,
				Y: cy + rnd.NormFloat64()*0.8,
			})
		}
	}
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{X: rnd.Float64() * 80, Y: rnd.Float64() * 80})
	}
	return pts
}

func TestCurveProperties(t *testing.T) {
	ix := dbscan.BuildIndex(blobsAndNoise(1), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	curve, err := Curve(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != ix.Len() {
		t.Fatalf("curve length %d, want %d", len(curve), ix.Len())
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("curve not descending at %d", i)
		}
	}
	for _, d := range curve {
		if d < 0 {
			t.Fatal("negative distance")
		}
	}
}

func TestCurveValidation(t *testing.T) {
	ix := dbscan.BuildIndex(blobsAndNoise(2)[:10], dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	if _, err := Curve(ix, 0); err == nil {
		t.Error("k=0 accepted")
	}
	empty := dbscan.BuildIndex(nil, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	curve, err := Curve(empty, 3)
	if err != nil || curve != nil {
		t.Errorf("empty index: %v %v", curve, err)
	}
}

func TestCurveTinyDataset(t *testing.T) {
	// Two points, k=5: falls back to the farthest available neighbor.
	ix := dbscan.BuildIndex([]geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	curve, err := Curve(ix, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 || curve[0] != 5 || curve[1] != 5 {
		t.Errorf("tiny curve = %v", curve)
	}
}

func TestElbow(t *testing.T) {
	// A synthetic hockey-stick: flat tail, sharp drop at index 5.
	curve := []float64{10, 9.5, 9, 8.5, 8, 2, 1.8, 1.6, 1.4, 1.2, 1}
	e := Elbow(curve)
	if e < 4 || e > 6 {
		t.Errorf("elbow = %d, want ~5", e)
	}
	// Degenerate curves.
	if Elbow(nil) != 0 || Elbow([]float64{1}) != 0 || Elbow([]float64{1, 2}) != 0 {
		t.Error("short curves should return 0")
	}
	if Elbow([]float64{3, 3, 3}) != 0 {
		t.Error("flat curve should return 0")
	}
}

func TestSuggestEpsSeparatesClustersFromNoise(t *testing.T) {
	pts := blobsAndNoise(3)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	sug, err := SuggestEps(ix, DefaultMinPts)
	if err != nil {
		t.Fatal(err)
	}
	if sug.Params.Eps <= 0 {
		t.Fatalf("eps = %g", sug.Params.Eps)
	}
	if sug.Params.MinPts != DefaultMinPts {
		t.Errorf("minpts = %d", sug.Params.MinPts)
	}
	// Clustering at the suggested parameters must find the 3 blobs and a
	// plausible noise share (between 0 and 40%).
	res, err := dbscan.Run(ix, sug.Params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 3 {
		t.Errorf("suggested params found %d clusters, want >= 3", res.NumClusters)
	}
	noiseFrac := float64(res.NumNoise()) / float64(ix.Len())
	if noiseFrac <= 0 || noiseFrac > 0.4 {
		t.Errorf("noise fraction at suggested eps = %g", noiseFrac)
	}
}

// TestSuggestEpsOnReloadedIndex runs the heuristic on the two kinds of
// index that have no T_high to borrow — a grid-kind build, which builds no
// tree, and one that went through FrozenParts / IndexFromFrozen, as every
// snapshot load does — and requires the suggestion of an R-tree build.
func TestSuggestEpsOnReloadedIndex(t *testing.T) {
	pts := blobsAndNoise(3)
	want, err := SuggestEps(dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexRTree}), DefaultMinPts)
	if err != nil {
		t.Fatal(err)
	}
	grid := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexGrid})
	parts, err := grid.FrozenParts()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := dbscan.IndexFromFrozen(parts)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*dbscan.Index{"grid": grid, "reloaded": reloaded} {
		got, err := SuggestEps(ix, DefaultMinPts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: suggestion %+v, want %+v", name, got, want)
		}
	}
}

func TestSuggestEpsValidation(t *testing.T) {
	ix := dbscan.BuildIndex(blobsAndNoise(4)[:20], dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	if _, err := SuggestEps(ix, 1); err == nil {
		t.Error("minpts=1 accepted")
	}
	empty := dbscan.BuildIndex(nil, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	if _, err := SuggestEps(empty, 4); err == nil {
		t.Error("empty index accepted")
	}
}

func TestSuggestEpsAllDuplicates(t *testing.T) {
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Point{X: 1, Y: 1}
	}
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	sug, err := SuggestEps(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sug.Params.Eps <= 0 {
		t.Errorf("duplicate data eps = %g, want positive fallback", sug.Params.Eps)
	}
}

func TestSuggestVariants(t *testing.T) {
	ix := dbscan.BuildIndex(blobsAndNoise(5), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
	vs, err := SuggestVariants(ix, []int{4, 8, 16}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 9 {
		t.Fatalf("|V| = %d", len(vs))
	}
	// ε values ascend by factor; each is reusable from the previous under
	// the inclusion criteria when minpts is ordered appropriately.
	if !(vs[0].Eps < vs[3].Eps && vs[3].Eps < vs[6].Eps) {
		t.Errorf("eps ordering: %v", vs)
	}
	if _, err := SuggestVariants(ix, nil, []float64{1}); err == nil {
		t.Error("empty minpts accepted")
	}
	if _, err := SuggestVariants(ix, []int{4}, nil); err == nil {
		t.Error("empty factors accepted")
	}
}

// TestNonFiniteOutliers appends one point with a non-finite coordinate,
// or one so far out that its squared distances overflow, to clustered
// data: the curve drops it, nothing panics, and SuggestEps returns the
// clean data's finite suggestion.
func TestNonFiniteOutliers(t *testing.T) {
	clean := blobsAndNoise(5)
	want, err := SuggestEps(dbscan.BuildIndex(clean, dbscan.IndexOptions{}), DefaultMinPts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    geom.Point
	}{
		{"NaN", geom.Point{X: math.NaN(), Y: 0}},
		{"+Inf", geom.Point{X: math.Inf(1), Y: 0}},
		{"-Inf", geom.Point{X: 0, Y: math.Inf(-1)}},
		{"1e300", geom.Point{X: 1e300, Y: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range []dbscan.IndexKind{dbscan.IndexGrid, dbscan.IndexRTree} {
				pts := append(append([]geom.Point(nil), clean...), tc.p)
				ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: kind})
				curve, err := Curve(ix, DefaultMinPts-1)
				if err != nil {
					t.Fatal(err)
				}
				if len(curve) != len(clean) {
					t.Fatalf("kind %v: curve has %d points, want the %d finite ones", kind, len(curve), len(clean))
				}
				got, err := SuggestEps(ix, DefaultMinPts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("kind %v: suggestion %+v, want the clean data's %+v", kind, got, want)
				}
			}
		})
	}
}

// TestSuggestEpsNothingFinite requires an error, not a non-finite ε, when
// no point has a finite k-distance.
func TestSuggestEpsNothingFinite(t *testing.T) {
	pts := []geom.Point{{X: math.NaN(), Y: 0}, {X: math.Inf(1), Y: 1}, {X: 1e300, Y: 2}, {X: -1e300, Y: 3}}
	s, err := SuggestEps(dbscan.BuildIndex(pts, dbscan.IndexOptions{}), DefaultMinPts)
	if err == nil {
		t.Fatalf("got suggestion %+v, want an error", s)
	}
}
