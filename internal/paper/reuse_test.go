package paper

import (
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/geom"
)

func info(id int32, size int, area float64) cluster.Info {
	return cluster.Info{
		ID:      id,
		Size:    size,
		Area:    area,
		Density: float64(size) / area,
		PtsSq:   float64(size) * float64(size) / area,
	}
}

func TestSchemeStrings(t *testing.T) {
	if ClusDefault.String() != "CLUSDEFAULT" ||
		ClusDensity.String() != "CLUSDENSITY" ||
		ClusPtsSquared.String() != "CLUSPTSSQUARED" {
		t.Error("scheme names wrong")
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme should still stringify")
	}
}

func TestSeedListDefault(t *testing.T) {
	infos := []cluster.Info{info(1, 10, 1), info(2, 100, 1), info(3, 5, 1)}
	ids := SeedList(infos, ClusDefault)
	want := []int32{1, 2, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("default order = %v", ids)
		}
	}
}

func TestSeedListDensity(t *testing.T) {
	// Cluster 2: tiny but hyper-dense. Cluster 1: large but sparse.
	infos := []cluster.Info{
		info(1, 1000, 1000), // density 1
		info(2, 50, 1),      // density 50
		info(3, 300, 30),    // density 10
	}
	ids := SeedList(infos, ClusDensity)
	want := []int32{2, 3, 1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("density order = %v, want %v", ids, want)
		}
	}
}

func TestSeedListPtsSquared(t *testing.T) {
	// Same infos as above; |C|²/a flips the ranking toward big clusters:
	// c1: 1e6/1e3 = 1000, c2: 2500/1 = 2500, c3: 9e4/30 = 3000.
	infos := []cluster.Info{
		info(1, 1000, 1000),
		info(2, 50, 1),
		info(3, 300, 30),
	}
	ids := SeedList(infos, ClusPtsSquared)
	want := []int32{3, 2, 1}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ptsSquared order = %v, want %v", ids, want)
		}
	}
}

func TestSeedListSchemesDisagree(t *testing.T) {
	// The paper's motivation: a very dense cluster may not contain many
	// points, so density and |C|² orders differ on the same input.
	infos := []cluster.Info{
		info(1, 10000, 10000), // density 1,   ptsSq 10000
		info(2, 10, 0.1),      // density 100, ptsSq 1000
	}
	d := SeedList(infos, ClusDensity)
	s := SeedList(infos, ClusPtsSquared)
	if d[0] != 2 || s[0] != 1 {
		t.Errorf("density first = %d (want 2), ptsSq first = %d (want 1)", d[0], s[0])
	}
}

func TestSeedListEmptyAndSingle(t *testing.T) {
	if got := SeedList(nil, ClusDensity); len(got) != 0 {
		t.Errorf("empty infos -> %v", got)
	}
	one := []cluster.Info{info(1, 5, 2)}
	for _, s := range Schemes {
		if got := SeedList(one, s); len(got) != 1 || got[0] != 1 {
			t.Errorf("scheme %v single = %v", s, got)
		}
	}
}

func TestSeedListStableOnTies(t *testing.T) {
	infos := []cluster.Info{info(1, 10, 1), info(2, 10, 1), info(3, 10, 1)}
	for _, s := range Schemes {
		ids := SeedList(infos, s)
		for i := range ids {
			if ids[i] != int32(i+1) {
				t.Errorf("scheme %v tie order = %v", s, ids)
				break
			}
		}
	}
}

func TestSeedListFromRealResult(t *testing.T) {
	// End-to-end through cluster.Infos: two clusters where density and
	// generation order differ.
	pts := []geom.Point{
		// Cluster 1: 3 spread-out points (low density).
		{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4},
		// Cluster 2: 3 tight points (high density).
		{X: 10, Y: 10}, {X: 10.1, Y: 10}, {X: 10, Y: 10.1},
	}
	r := &cluster.Result{Labels: []int32{1, 1, 1, 2, 2, 2}, NumClusters: 2}
	infos := r.Infos(pts)
	if got := SeedList(infos, ClusDensity); got[0] != 2 {
		t.Errorf("densest-first should pick cluster 2, got %v", got)
	}
	if got := SeedList(infos, ClusDefault); got[0] != 1 {
		t.Errorf("default should pick cluster 1, got %v", got)
	}
}
