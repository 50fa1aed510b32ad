package tec

import (
	"math"
	"testing"

	"vdbscan/internal/data"
	"vdbscan/internal/dbscan"
)

func TestSimulateBasics(t *testing.T) {
	ds, err := Simulate(Config{N: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 5000 {
		t.Fatalf("|D| = %d", ds.Len())
	}
	if ds.NoiseFrac >= 0 {
		t.Error("TEC datasets have no noise label (Table I: N/A)")
	}
	for _, p := range ds.Points {
		if !data.Region.ContainsPoint(p) {
			t.Fatalf("point %v outside region", p)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := Config{N: 2000, Seed: 9}
	a, _ := Simulate(cfg)
	b, _ := Simulate(cfg)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("same config produced different points")
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(Config{N: -5}); err == nil {
		t.Error("negative N accepted")
	}
	ds, err := Simulate(Config{N: 0, Seed: 1})
	if err != nil || ds.Len() != 0 {
		t.Errorf("N=0: %v %v", ds, err)
	}
}

func TestFieldStructure(t *testing.T) {
	f := NewField(Config{Seed: 3})
	// TEC is always positive and bounded by the component amplitudes.
	for lon := 0.0; lon < 360; lon += 30 {
		for lat := 0.0; lat <= 180; lat += 30 {
			v := f.TEC(lon, lat, 0)
			if v <= 0 || v > 200 {
				t.Fatalf("TEC(%g,%g) = %g implausible", lon, lat, v)
			}
			if math.IsNaN(v) {
				t.Fatalf("TEC(%g,%g) = NaN", lon, lat)
			}
		}
	}
}

func TestFieldEvolvesWithTime(t *testing.T) {
	f := NewField(Config{Seed: 4})
	moved := 0
	for lon := 5.0; lon < 360; lon += 45 {
		if math.Abs(f.TEC(lon, 90, 0)-f.TEC(lon, 90, 2)) > 0.1 {
			moved++
		}
	}
	if moved < 3 {
		t.Errorf("field barely changed over 2h (moved=%d)", moved)
	}
}

func TestThresholdingKeepsHighTEC(t *testing.T) {
	// Kept points must have TEC above the field's global mean: they are the
	// top KeepFraction of samples.
	cfg := Config{N: 3000, Seed: 5}
	ds, _ := Simulate(cfg)
	f := NewField(cfg)
	var keptSum float64
	for _, p := range ds.Points {
		keptSum += f.TEC(p.X, p.Y, 0)
	}
	keptMean := keptSum / float64(ds.Len())

	rng := data.NewRNG(123)
	var allSum float64
	const probes = 5000
	for i := 0; i < probes; i++ {
		allSum += f.TEC(rng.Float64()*360, rng.Float64()*180, 0)
	}
	allMean := allSum / probes
	if keptMean <= allMean {
		t.Errorf("kept mean TEC %.2f not above field mean %.2f", keptMean, allMean)
	}
}

func TestSimulatedTECClustersWell(t *testing.T) {
	// The point of the substitution: thresholded TEC points must produce a
	// meaningful DBSCAN clustering (many clusters, partial noise) like the
	// paper's SW data (Table II: SW1 at (0.5, 4) -> 2333 clusters).
	ds, _ := Simulate(Config{N: 20000, Seed: 6})
	ix := dbscan.BuildIndex(ds.Points, dbscan.IndexOptions{R: 32, Kind: dbscan.IndexRTree})
	res, err := dbscan.Run(ix, dbscan.Params{Eps: 2.0, MinPts: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 10 {
		t.Errorf("clusters = %d, want >= 10 (filamentary structure)", res.NumClusters)
	}
	if res.NumNoise() == 0 {
		t.Error("expected some diffuse background noise")
	}
	if res.NumNoise() == ds.Len() {
		t.Error("everything was noise — no dense structure")
	}
}

func TestSW(t *testing.T) {
	for k := 1; k <= 4; k++ {
		ds, err := SW(k, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		want := int(float64(PaperSize(k)) * 0.001)
		if ds.Len() != want {
			t.Errorf("SW%d scaled size = %d, want %d", k, ds.Len(), want)
		}
	}
	// Sizes ascend like the paper's.
	if !(PaperSize(1) < PaperSize(2) && PaperSize(2) < PaperSize(3) && PaperSize(3) < PaperSize(4)) {
		t.Error("SW sizes not ascending")
	}
	if PaperSize(1) != 1_864_620 || PaperSize(4) != 5_159_737 {
		t.Errorf("paper sizes wrong: %d, %d", PaperSize(1), PaperSize(4))
	}
	if PaperSize(0) != 0 || PaperSize(5) != 0 {
		t.Error("out-of-range PaperSize should be 0")
	}
}

func TestSWValidation(t *testing.T) {
	if _, err := SW(0, 0.1); err == nil {
		t.Error("SW(0) accepted")
	}
	if _, err := SW(5, 0.1); err == nil {
		t.Error("SW(5) accepted")
	}
	if _, err := SW(1, 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := SW(1, 1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func TestSWDatasetsDiffer(t *testing.T) {
	a, _ := SW(1, 0.001)
	b, _ := SW(2, 0.001)
	if a.Name != "SW1" || b.Name != "SW2" {
		t.Errorf("names: %s, %s", a.Name, b.Name)
	}
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	same := 0
	for i := 0; i < n; i++ {
		if a.Points[i] == b.Points[i] {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("SW1 and SW2 share %d of %d points", same, n)
	}
}

func TestWrapLonClampLat(t *testing.T) {
	if got := wrapLon(-10); got != 350 {
		t.Errorf("wrapLon(-10) = %g", got)
	}
	if got := wrapLon(370); got != 10 {
		t.Errorf("wrapLon(370) = %g", got)
	}
	if clampLat(-5) != 0 || clampLat(185) != 180 || clampLat(90) != 90 {
		t.Error("clampLat wrong")
	}
}

func TestAngularDist(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 10, 10},
		{350, 10, 20}, // wraps
		{0, 180, 180},
		{90, 90, 0},
	}
	for _, c := range cases {
		if got := angularDist(c.a, c.b); got != c.want {
			t.Errorf("angularDist(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}
