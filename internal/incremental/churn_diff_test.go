package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
)

// This file is the differential correctness harness for the streaming
// path: after EVERY insert and delete the incremental clustering,
// restricted to live points, must be equivalent to a from-scratch DBSCAN
// run over the same points.
//
// "Equivalent" cannot mean label-for-label identical: DBSCAN border
// points within ε of cores from two clusters legally attach to either,
// depending on expansion order, and incremental maintenance explores in
// a different order than a batch run. The checker therefore enforces the
// strongest order-independent equivalence:
//
//  1. identical noise sets (noise is order-independent: no core within ε);
//  2. identical core sets (recomputed by brute force, trusting neither side);
//  3. a bijection between cluster IDs restricted to core points — the
//     core partition is order-independent, so it must match exactly;
//  4. every border point's cluster contains a core within ε of it
//     (attachment legality, checked geometrically).
//
// Anything weaker (noise counts, 1%-disagreement tolerance) can hide a
// genuine cluster-split bug; anything stronger is unsatisfiable.

// churnEquivalent checks conditions 1–4 for got (live-point labels from
// the incremental clusterer) against want (a from-scratch run over the
// same live slice).
func churnEquivalent(t *testing.T, tag string, got, want *cluster.Result, live []geom.Point, p dbscan.Params) {
	t.Helper()
	n := len(live)
	if got.Len() != n || want.Len() != n {
		t.Fatalf("%s: length mismatch: got %d, want %d, live %d", tag, got.Len(), want.Len(), n)
	}
	// Core flags by brute force, trusting neither clustering.
	epsSq := p.Eps * p.Eps
	core := make([]bool, n)
	for i := range live {
		cnt := 0
		for j := range live {
			if live[i].DistSq(live[j]) <= epsSq {
				cnt++
			}
		}
		core[i] = cnt >= p.MinPts
	}
	// 1. Noise sets.
	for i := 0; i < n; i++ {
		gn, wn := got.Labels[i] <= 0, want.Labels[i] <= 0
		if gn != wn {
			t.Fatalf("%s: point %d %v: incremental noise=%v, batch noise=%v",
				tag, i, live[i], gn, wn)
		}
		if core[i] && gn {
			t.Fatalf("%s: core point %d %v labeled noise", tag, i, live[i])
		}
	}
	// 2+3. Core partition bijection.
	g2w := map[int32]int32{}
	w2g := map[int32]int32{}
	for i := 0; i < n; i++ {
		if !core[i] {
			continue
		}
		g, w := got.Labels[i], want.Labels[i]
		if prev, ok := g2w[g]; ok && prev != w {
			t.Fatalf("%s: incremental cluster %d spans batch clusters %d and %d (core %d)",
				tag, g, prev, w, i)
		}
		if prev, ok := w2g[w]; ok && prev != g {
			t.Fatalf("%s: batch cluster %d spans incremental clusters %d and %d (core %d) — missed split or merge",
				tag, w, prev, g, i)
		}
		g2w[g] = w
		w2g[w] = g
	}
	// 4. Border attachment legality for the incremental side.
	for i := 0; i < n; i++ {
		if core[i] || got.Labels[i] <= 0 {
			continue
		}
		ok := false
		for j := 0; j < n; j++ {
			if core[j] && got.Labels[j] == got.Labels[i] && live[i].DistSq(live[j]) <= epsSq {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: border point %d %v in cluster %d has no core of that cluster within ε",
				tag, i, live[i], got.Labels[i])
		}
	}
}

// liveView projects the full insertion-ordered labels down to the live
// points.
func liveView(c *Clusterer, pts []geom.Point, dead []bool) (*cluster.Result, []geom.Point) {
	full := c.Labels()
	var live []geom.Point
	var labels []int32
	for i, p := range pts {
		if dead[i] {
			continue
		}
		live = append(live, p)
		labels = append(labels, full.Labels[i])
	}
	res := cluster.NewResult(len(live))
	copy(res.Labels, labels)
	return res, live
}

// churnPoint draws from four dense blobs plus a uniform background, so
// the stream continually forms, bridges, and starves clusters.
func churnPoint(rng *rand.Rand) geom.Point {
	if rng.Float64() < 0.25 {
		return geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	centers := [4]geom.Point{{X: 2, Y: 2}, {X: 2, Y: 7}, {X: 7, Y: 3}, {X: 8, Y: 8}}
	c := centers[rng.Intn(4)]
	return geom.Point{X: c.X + rng.NormFloat64()*0.6, Y: c.Y + rng.NormFloat64()*0.6}
}

// runChurn drives a seeded insert/delete churn through a Clusterer and
// checks differential equivalence against dbscan.RunBruteForce after
// every single operation.
func runChurn(t *testing.T, seed int64, warmup, ops int) {
	t.Helper()
	p := dbscan.Params{Eps: 0.45, MinPts: 4}
	c, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var pts []geom.Point
	var dead []bool
	var liveIdx []int

	check := func(tag string) {
		t.Helper()
		got, live := liveView(c, pts, dead)
		want, err := dbscan.RunBruteForce(live, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		churnEquivalent(t, tag, got, want, live, p)
	}
	insert := func() {
		q := churnPoint(rng)
		pts = append(pts, q)
		dead = append(dead, false)
		liveIdx = append(liveIdx, len(pts)-1)
		c.Insert(q)
	}

	for i := 0; i < warmup; i++ {
		insert()
	}
	check("after warmup")

	for op := 0; op < ops; op++ {
		if len(liveIdx) > 0 && rng.Float64() < 0.45 {
			k := rng.Intn(len(liveIdx))
			i := liveIdx[k]
			liveIdx[k] = liveIdx[len(liveIdx)-1]
			liveIdx = liveIdx[:len(liveIdx)-1]
			if err := c.Delete(i); err != nil {
				t.Fatalf("op %d: delete %d: %v", op, i, err)
			}
			dead[i] = true
			// Splits must be exact after every delete, not eventually right.
			check(fmt.Sprintf("op %d after delete %d", op, i))
		} else {
			insert()
			check(fmt.Sprintf("op %d after insert", op))
		}
	}
	check("final")
}

// TestChurnMatchesParallelFlat cross-checks the incremental clustering
// against from-scratch *flat-path parallel* DBSCAN at 1–8 workers — the
// exact acceptance criterion: any interleaving of inserts and deletes
// must equal a fresh Run over the surviving points.
func TestChurnMatchesParallelFlat(t *testing.T) {
	p := dbscan.Params{Eps: 0.45, MinPts: 4}
	c, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var pts []geom.Point
	var dead []bool
	var liveIdx []int

	crossCheck := func(tag string) {
		t.Helper()
		got, live := liveView(c, pts, dead)
		ix := dbscan.BuildIndex(append([]geom.Point(nil), live...), dbscan.IndexOptions{Kind: dbscan.IndexRTree})
		for workers := 1; workers <= 8; workers++ {
			want, err := dbscan.RunParallel(ix, p, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			churnEquivalent(t, fmt.Sprintf("%s workers=%d", tag, workers),
				got, want.Remap(ix.Fwd), live, p)
		}
	}

	for i := 0; i < 240; i++ {
		q := churnPoint(rng)
		pts = append(pts, q)
		dead = append(dead, false)
		liveIdx = append(liveIdx, len(pts)-1)
		c.Insert(q)
	}
	crossCheck("after load")
	for round := 0; round < 4; round++ {
		for op := 0; op < 40; op++ {
			if len(liveIdx) > 0 && rng.Float64() < 0.5 {
				k := rng.Intn(len(liveIdx))
				i := liveIdx[k]
				liveIdx[k] = liveIdx[len(liveIdx)-1]
				liveIdx = liveIdx[:len(liveIdx)-1]
				if err := c.Delete(i); err != nil {
					t.Fatal(err)
				}
				dead[i] = true
			} else {
				q := churnPoint(rng)
				pts = append(pts, q)
				dead = append(dead, false)
				liveIdx = append(liveIdx, len(pts)-1)
				c.Insert(q)
			}
		}
		crossCheck(fmt.Sprintf("round %d", round))
	}
}

// TestChurnDifferentialEpochs runs the differential churn on two more
// seeds with a short warmup, so each stream passes through several
// epochs of cluster birth, growth, splitting and dissolution while the
// ε-cells under it fill, empty and refill.
func TestChurnDifferentialEpochs(t *testing.T) {
	for _, seed := range []int64{2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChurn(t, seed, 180, 260)
		})
	}
}

// TestChurnDifferentialManySeeds runs the differential churn over a sweep
// of seeds and stream shapes: a short warmup that churns through cluster
// birth, and a longer one (seed 4) that churns an established clustering.
// Seeds 10 and up are cheap insurance against a split/demotion corner the
// first ones happen to miss, skipped in -short.
func TestChurnDifferentialManySeeds(t *testing.T) {
	type run struct {
		seed        int64
		warmup, ops int
	}
	runs := []run{{1, 180, 260}, {4, 300, 200}}
	for seed := int64(10); seed < 22; seed++ {
		runs = append(runs, run{seed, 140, 180})
	}
	for _, r := range runs {
		t.Run(fmt.Sprintf("seed=%d", r.seed), func(t *testing.T) {
			if testing.Short() && r.seed >= 10 {
				t.Skip("seed sweep skipped in -short")
			}
			t.Parallel()
			runChurn(t, r.seed, r.warmup, r.ops)
		})
	}
}
