package paper

import (
	"fmt"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/quality"
	"vdbscan/internal/variant"
)

// These tests pin the *boundary* of the reuse inclusion criteria
// (§IV-B): reuse is legal when ε_i ≥ ε_j AND minpts_i ≤ minpts_j — with
// equality explicitly included. An accidental strict comparison would be
// silently conservative (equal-parameter variants re-cluster from
// scratch, losing the paper's headline speedup case of duplicated
// parameter grids), and a flipped comparison would be silently wrong.

func TestCanReuseBoundaryInclusive(t *testing.T) {
	base := dbscan.Params{Eps: 0.5, MinPts: 4}
	cases := []struct {
		vi, vj dbscan.Params
		want   bool
		why    string
	}{
		{base, base, true, "identical parameters are the boundary in both coordinates"},
		{dbscan.Params{Eps: 0.5, MinPts: 3}, base, true, "equal ε, smaller minpts"},
		{dbscan.Params{Eps: 0.6, MinPts: 4}, base, true, "larger ε, equal minpts"},
		{dbscan.Params{Eps: 0.6, MinPts: 3}, base, true, "both strictly inside"},
		{dbscan.Params{Eps: 0.4999, MinPts: 4}, base, false, "ε below"},
		{dbscan.Params{Eps: 0.5, MinPts: 5}, base, false, "minpts above"},
		{dbscan.Params{Eps: 0.6, MinPts: 5}, base, false, "ε inside but minpts above"},
	}
	for _, c := range cases {
		if got := variant.CanReuse(c.vi, c.vj); got != c.want {
			t.Errorf("CanReuse(%v, %v) = %v, want %v (%s)", c.vi, c.vj, got, c.want, c.why)
		}
	}
}

// equivalentToScratch checks got against a from-scratch run on the same
// index via the order-independent DBSCAN equivalence: identical noise
// sets, a bijection between cluster IDs on core points, and legal border
// attachment.
func equivalentToScratch(t *testing.T, tag string, ix *dbscan.Index, p dbscan.Params, got *cluster.Result) {
	t.Helper()
	want, err := dbscan.Run(ix, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	epsSq := p.Eps * p.Eps
	n := ix.Len()
	core := make([]bool, n)
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			if ix.Pts[i].DistSq(ix.Pts[j]) <= epsSq {
				cnt++
			}
		}
		core[i] = cnt >= p.MinPts
	}
	g2w, w2g := map[int32]int32{}, map[int32]int32{}
	for i := 0; i < n; i++ {
		g, w := got.Labels[i], want.Labels[i]
		if (g <= 0) != (w <= 0) {
			t.Fatalf("%s: point %d noise disagreement: reused %d, scratch %d", tag, i, g, w)
		}
		if !core[i] {
			continue
		}
		if prev, ok := g2w[g]; ok && prev != w {
			t.Fatalf("%s: reused cluster %d spans scratch clusters %d and %d", tag, g, prev, w)
		}
		if prev, ok := w2g[w]; ok && prev != g {
			t.Fatalf("%s: scratch cluster %d spans reused clusters %d and %d", tag, w, prev, g)
		}
		g2w[g], w2g[w] = w, g
	}
	for i := 0; i < n; i++ {
		if core[i] || got.Labels[i] <= 0 {
			continue
		}
		ok := false
		for j := 0; j < n; j++ {
			if core[j] && got.Labels[j] == got.Labels[i] && ix.Pts[i].DistSq(ix.Pts[j]) <= epsSq {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: border %d attached to cluster %d with no adjacent core", tag, i, got.Labels[i])
		}
	}
}

// TestReuseEqualParamsMatchesPlainDBSCAN is the boundary property test:
// a variant reusing a donor with IDENTICAL parameters must reproduce
// plain DBSCAN exactly — reused clusters are copied wholesale, so even
// the border assignments are inherited and the quality score is exactly
// 1.0, not merely ≥ 0.99.
func TestReuseEqualParamsMatchesPlainDBSCAN(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pts := blobs(3, 90, 40, 18, 0.5, seed)
			ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
			p := dbscan.Params{Eps: 0.55, MinPts: 4}
			prev, err := dbscan.Run(ix, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !variant.CanReuse(p, p) {
				t.Fatal("equal parameters must satisfy the inclusion criteria")
			}
			for _, scheme := range Schemes {
				got, stats, err := Run(ix, p, prev, scheme, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stats.FromScratch {
					t.Fatalf("scheme %v: equal-parameter variant did not reuse", scheme)
				}
				if stats.PointsReused == 0 {
					t.Fatalf("scheme %v: no points reused: %+v", scheme, stats)
				}
				if s := quality.MustScore(prev, got); s != 1.0 {
					t.Fatalf("scheme %v: equal-parameter reuse quality = %v, want exactly 1.0", scheme, s)
				}
				if got.NumClusters != prev.NumClusters || got.NumNoise() != prev.NumNoise() {
					t.Fatalf("scheme %v: clusters/noise %d/%d, want %d/%d",
						scheme, got.NumClusters, got.NumNoise(), prev.NumClusters, prev.NumNoise())
				}
			}
		})
	}
}

// TestReuseSingleCoordinateBoundary holds one parameter at exact
// equality while the other moves strictly inside the criteria — the two
// edges of the inclusion region. The reused result must be equivalent to
// clustering variant i from scratch.
func TestReuseSingleCoordinateBoundary(t *testing.T) {
	pts := blobs(3, 80, 40, 16, 0.5, 7)
	ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{R: 8, Kind: dbscan.IndexRTree})
	donor := dbscan.Params{Eps: 0.5, MinPts: 5}
	prev, err := dbscan.Run(ix, donor, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    dbscan.Params
	}{
		{"equal-eps smaller-minpts", dbscan.Params{Eps: 0.5, MinPts: 3}},
		{"larger-eps equal-minpts", dbscan.Params{Eps: 0.62, MinPts: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !variant.CanReuse(c.p, donor) {
				t.Fatalf("CanReuse(%v, %v) = false at the boundary", c.p, donor)
			}
			got, stats, err := Run(ix, c.p, prev, ClusDensity, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.FromScratch || stats.PointsReused == 0 {
				t.Fatalf("boundary variant did not reuse: %+v", stats)
			}
			equivalentToScratch(t, c.name, ix, c.p, got)
		})
	}
}
