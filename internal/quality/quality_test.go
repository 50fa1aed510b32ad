package quality

import (
	"math"
	"math/rand"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/reuse"

	vcore "vdbscan/internal/core"
)

func res(labels ...int32) *cluster.Result {
	r := &cluster.Result{Labels: labels}
	max := int32(0)
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	r.NumClusters = int(max)
	return r
}

func TestScoreIdentical(t *testing.T) {
	a := res(1, 1, 2, cluster.Noise)
	got, err := Score(a, a)
	if err != nil || got != 1 {
		t.Errorf("identical score = %g, %v", got, err)
	}
}

func TestScoreRenumberedIsPerfect(t *testing.T) {
	a := res(1, 1, 2, cluster.Noise)
	b := res(2, 2, 1, cluster.Noise)
	if got := MustScore(a, b); got != 1 {
		t.Errorf("renumbered score = %g, want 1", got)
	}
}

func TestScoreNoiseMisidentification(t *testing.T) {
	// One of four points flips noise status: it scores 0, the others 1.
	a := res(1, 1, 1, cluster.Noise)
	b := res(1, 1, 1, 1)
	want := 0.0
	// Points 0..2: both in clusters of sizes 3 (a) and 4 (b), overlap 3.
	// Jaccard = 3 / (3 + 4 - 3) = 0.75 each. Point 3: noise vs cluster -> 0.
	want = (0.75*3 + 0) / 4
	if got := MustScore(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("score = %g, want %g", got, want)
	}
}

func TestScoreAsymmetricNoise(t *testing.T) {
	// The noise-misidentification penalty must fire in BOTH directions and
	// both must cost exactly the same: a point that is noise only in the
	// reference and a point that is noise only in the candidate each score
	// 0, regardless of how clean the rest of the assignment is. A buggy
	// one-sided check (e.g. only penalizing candidate-noise) would make
	// Score(a, b) disagree with Score(b, a) on pure noise flips.
	a := res(1, 1, 1, cluster.Noise, 2, 2)
	b := res(1, 1, 1, 2, 2, cluster.Noise)
	// Point 3: noise in a only -> 0. Point 5: noise in b only -> 0.
	// Points 0-2: clusters of size 3/3, overlap 3 -> 1 each.
	// Point 4: a-cluster 2 (size 2), b-cluster 2 (size 2), overlap 1 ->
	// 1/(2+2-1) = 1/3.
	want := (3 + 0 + 1.0/3 + 0) / 6
	if got := MustScore(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("asymmetric noise score = %g, want %g", got, want)
	}
	// Swapping reference and candidate flips which side each noise point
	// sits on, but the per-point penalties are symmetric here, so the
	// total must be identical.
	if fwd, rev := MustScore(a, b), MustScore(b, a); math.Abs(fwd-rev) > 1e-12 {
		t.Errorf("noise penalty is direction-dependent: %g vs %g", fwd, rev)
	}
	// All-noise reference against all-clustered candidate is the extreme
	// case: every point misidentified, score exactly 0 — not NaN, not a
	// Jaccard of empty sets.
	allNoise := res(cluster.Noise, cluster.Noise, cluster.Noise)
	allClus := res(1, 1, 1)
	if got := MustScore(allNoise, allClus); got != 0 {
		t.Errorf("all-noise vs all-clustered = %g, want 0", got)
	}
	if got := MustScore(allClus, allNoise); got != 0 {
		t.Errorf("all-clustered vs all-noise = %g, want 0", got)
	}
}

func TestScoreSplitCluster(t *testing.T) {
	// Reference one cluster of 4; candidate splits it 2+2.
	a := res(1, 1, 1, 1)
	b := res(1, 1, 2, 2)
	// Each point: |E∩F| = 2, |E∪F| = 4 + 2 - 2 = 4 -> 0.5.
	if got := MustScore(a, b); got != 0.5 {
		t.Errorf("split score = %g, want 0.5", got)
	}
}

func TestScoreAllNoiseBoth(t *testing.T) {
	a := res(cluster.Noise, cluster.Noise)
	if got := MustScore(a, a); got != 1 {
		t.Errorf("all-noise score = %g", got)
	}
}

func TestScoreEmpty(t *testing.T) {
	if got := MustScore(res(), res()); got != 1 {
		t.Errorf("empty score = %g, want 1 by convention", got)
	}
}

func TestScoreLengthMismatch(t *testing.T) {
	if _, err := Score(res(1), res(1, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustScore should panic on mismatch")
		}
	}()
	MustScore(res(1), res(1, 2))
}

func TestScoreAsymmetryOfSizes(t *testing.T) {
	// Candidate merges two reference clusters: points of the small one get
	// a low Jaccard against the merged cluster.
	a := res(1, 1, 1, 2)
	b := res(1, 1, 1, 1)
	// Points 0-2: 3/(3+4-3)=0.75; point 3: 1/(1+4-1)=0.25.
	want := (0.75*3 + 0.25) / 4
	if got := MustScore(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("merge score = %g, want %g", got, want)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 0.5}); got != 0.75 {
		t.Errorf("Mean = %g", got)
	}
}

// End-to-end: VariantDBSCAN vs DBSCAN quality matches the paper's ≥0.998
// regime on blob data.
func TestVariantDBSCANQualityHigh(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 0, 900)
	for c := 0; c < 4; c++ {
		cx, cy := rnd.Float64()*30, rnd.Float64()*30
		for i := 0; i < 200; i++ {
			pts = append(pts, geom.Point{X: cx + rnd.NormFloat64()*0.5, Y: cy + rnd.NormFloat64()*0.5})
		}
	}
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{X: rnd.Float64() * 30, Y: rnd.Float64() * 30})
	}
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 16, Kind: dbscan.IndexRTree})
	prev, _ := dbscan.Run(ix, dbscan.Params{Eps: 0.4, MinPts: 12}, nil)
	target := dbscan.Params{Eps: 0.6, MinPts: 4}
	got, _, err := vcore.Run(ix, target, prev, reuse.ClusDensity, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dbscan.Run(ix, target, nil)
	score := MustScore(want, got)
	if score < 0.99 {
		t.Errorf("quality = %g, want >= 0.99 (paper reports >= 0.998)", score)
	}
}
