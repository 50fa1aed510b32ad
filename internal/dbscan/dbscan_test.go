package dbscan

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/rtree"
)

// blobs generates k Gaussian blobs of m points each plus noise uniform
// points over extent; deterministic per seed.
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

func TestParamsValidate(t *testing.T) {
	if err := (Params{Eps: 0.5, MinPts: 4}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{Eps: 0, MinPts: 4}).Validate(); err == nil {
		t.Error("eps=0 accepted")
	}
	if err := (Params{Eps: -1, MinPts: 4}).Validate(); err == nil {
		t.Error("eps<0 accepted")
	}
	if err := (Params{Eps: 1, MinPts: 0}).Validate(); err == nil {
		t.Error("minpts=0 accepted")
	}
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Params{Eps: eps, MinPts: 4}).Validate(); err == nil || !strings.Contains(err.Error(), "eps") {
			t.Errorf("eps=%g: err = %v, want an error naming eps", eps, err)
		}
	}
	if s := (Params{Eps: 0.2, MinPts: 32}).String(); s != "(0.2, 32)" {
		t.Errorf("String = %q", s)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	ix := BuildIndex([]geom.Point{{X: 0, Y: 0}}, IndexOptions{Kind: IndexRTree})
	if _, err := Run(ix, Params{Eps: -1, MinPts: 2}, nil); err == nil {
		t.Error("Run accepted bad params")
	}
	if _, err := RunBruteForce(nil, Params{Eps: 1, MinPts: 0}, nil); err == nil {
		t.Error("RunBruteForce accepted bad params")
	}
}

func TestBuildIndexDefaults(t *testing.T) {
	pts := blobs(2, 100, 20, 50, 1, 1)
	ix := BuildIndex(pts, IndexOptions{})
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.Kind != IndexGrid {
		t.Errorf("Kind = %v, want grid", ix.Kind)
	}
	if ix.R() != DefaultR {
		t.Errorf("R = %d, want %d", ix.R(), DefaultR)
	}
	if l := ix.Low(); l.R() != DefaultR {
		t.Errorf("T_low built with r=%d, want %d", l.R(), DefaultR)
	}
	if h := ix.High(); h.R() != 1 {
		t.Errorf("T_high built with r=%d, want 1", h.R())
	}
	// Fwd is a permutation.
	seen := make([]bool, len(pts))
	for _, orig := range ix.Fwd {
		if seen[orig] {
			t.Fatal("Fwd not a permutation")
		}
		seen[orig] = true
	}
}

// TestIndexRetainedHeap pins what a resident index costs. Every kind holds
// the sorted points (16 B), their SoA copy (16 B) and Fwd (8 B). The R-tree
// kind adds T_low (~1 B); its one-entry-per-point T_high (~44 B) is built
// only by a paper-strategy sweep. The grid kind adds its CSR cell grid
// (20 B + cells) and no tree. Measured: 40.8 B/point for the R-tree kind
// and 63.6 for the grid kind; the limits are those plus 10 %. The pointer
// trees the flat ones are compacted from are another 54 B/point and must
// not outlive a build.
func TestIndexRetainedHeap(t *testing.T) {
	const n = 50_000
	rnd := rand.New(rand.NewSource(91))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 200, Y: rnd.Float64() * 200}
	}
	for _, c := range []struct {
		kind  IndexKind
		limit float64
	}{{IndexRTree, 45}, {IndexGrid, 70}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		ix := BuildIndex(pts, IndexOptions{Kind: c.kind})
		if err := ix.EnsureGrid(1); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perPoint := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		runtime.KeepAlive(ix)
		if perPoint > c.limit {
			t.Errorf("%v: index retains %.1f B/point, want <= %g", c.kind, perPoint, c.limit)
		}
		t.Logf("%v: %.1f B/point", c.kind, perPoint)
	}
}

// TestBuildIndexLazyTrees pins which trees a build makes: an R-tree-kind
// index builds T_low and no T_high, a grid-kind index neither, and
// EnsureGrid builds no tree either. Each is built on first use.
func TestBuildIndexLazyTrees(t *testing.T) {
	pts := blobs(1, 50, 0, 10, 1, 2)
	rt := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	if rt.low.t == nil || rt.high.t != nil {
		t.Error("an R-tree-kind build should hold T_low and no T_high")
	}
	gr := BuildIndex(pts, IndexOptions{Kind: IndexGrid})
	if err := gr.EnsureGrid(1); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gr, Params{Eps: 1, MinPts: 4}, nil); err != nil {
		t.Fatal(err)
	}
	if gr.low.t != nil || gr.high.t != nil {
		t.Error("a grid-kind index built a tree nothing asked for")
	}
	if gr.High() != gr.High() || gr.high.t == nil {
		t.Error("High should build T_high once and keep it")
	}
}

// TestLazyLowBuiltOnce searches a grid-kind index before EnsureGrid from 8
// goroutines at once — run it under -race. Every search must answer through
// the one T_low they build between them, with the bytes of an R-tree
// index's.
func TestLazyLowBuiltOnce(t *testing.T) {
	pts := blobs(3, 400, 100, 30, 1, 5)
	ref := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	ix := BuildIndex(pts, IndexOptions{})
	const searchers = 8
	trees := make([]*rtree.Flat, searchers)
	errs := make(chan string, searchers)
	var wg sync.WaitGroup
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var got, want []int32
			for i := w; i < ix.Len(); i += searchers {
				got = ix.NeighborSearch(ix.Pts[i], 1.2, nil, got[:0])
				want = ref.NeighborSearch(ref.Pts[i], 1.2, nil, want[:0])
				if !slices.Equal(got, want) {
					errs <- fmt.Sprintf("point %d: %v, R-tree index %v", i, got, want)
					return
				}
			}
			trees[w] = ix.Low()
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for w, tr := range trees {
		if tr != trees[0] || tr != ix.low.t {
			t.Fatalf("searcher %d saw another T_low", w)
		}
	}
	if ix.Grid() != nil || ix.high.t != nil {
		t.Error("searching built more than T_low")
	}
}

func TestNeighborSearchExact(t *testing.T) {
	pts := blobs(3, 200, 50, 30, 1, 3)
	ix := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	rnd := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		q := geom.Point{X: rnd.Float64() * 30, Y: rnd.Float64() * 30}
		eps := 0.5 + rnd.Float64()*2
		got := ix.NeighborSearch(q, eps, nil, nil)
		// Linear scan over sorted points gives ground truth.
		want := 0
		for _, p := range ix.Pts {
			if q.DistSq(p) <= eps*eps {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("NeighborSearch(%v, %g) = %d points, want %d", q, eps, len(got), want)
		}
		for _, idx := range got {
			if q.DistSq(ix.Pts[idx]) > eps*eps {
				t.Fatalf("returned point %d outside eps", idx)
			}
		}
	}
}

func TestNeighborSearchCountsMetrics(t *testing.T) {
	pts := blobs(1, 500, 0, 10, 1, 5)
	ix := BuildIndex(pts, IndexOptions{R: 32, Kind: IndexRTree})
	var m metrics.Counters
	ix.NeighborSearch(geom.Point{X: 5, Y: 5}, 1, &m, nil)
	s := m.Snapshot()
	if s.NeighborSearches != 1 {
		t.Errorf("searches = %d", s.NeighborSearches)
	}
	if s.CandidatesExamined < s.NeighborsFound {
		t.Errorf("candidates %d < neighbors %d", s.CandidatesExamined, s.NeighborsFound)
	}
	if s.NodesVisited < 1 {
		t.Errorf("nodes = %d", s.NodesVisited)
	}
}

// Known tiny configuration with hand-computable answer.
func TestRunTinyKnownClusters(t *testing.T) {
	// Two tight triads far apart plus one isolated point.
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0, Y: 0.5}, // cluster A
		{X: 10, Y: 10}, {X: 10.5, Y: 10}, {X: 10, Y: 10.5}, // cluster B
		{X: 50, Y: 50}, // noise
	}
	ix := BuildIndex(pts, IndexOptions{R: 2, Kind: IndexRTree})
	res, err := Run(ix, Params{Eps: 1, MinPts: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	if res.NumNoise() != 1 {
		t.Fatalf("noise = %d, want 1", res.NumNoise())
	}
	// Remap to original order and check the two triads landed together.
	orig := res.Remap(ix.Fwd)
	if orig.Labels[0] != orig.Labels[1] || orig.Labels[1] != orig.Labels[2] {
		t.Error("triad A split")
	}
	if orig.Labels[3] != orig.Labels[4] || orig.Labels[4] != orig.Labels[5] {
		t.Error("triad B split")
	}
	if orig.Labels[0] == orig.Labels[3] {
		t.Error("triads merged")
	}
	if orig.Labels[6] != cluster.Noise {
		t.Error("isolated point not noise")
	}
}

func TestRunMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []geom.Point
		p    Params
	}{
		{"blobs-sparse", blobs(4, 150, 100, 40, 0.8, 10), Params{Eps: 0.7, MinPts: 4}},
		{"blobs-dense", blobs(2, 400, 50, 20, 0.5, 11), Params{Eps: 0.4, MinPts: 8}},
		{"uniform", blobs(0, 0, 600, 25, 1, 12), Params{Eps: 1.2, MinPts: 4}},
		{"high-minpts", blobs(3, 200, 0, 30, 1, 13), Params{Eps: 1, MinPts: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := BuildIndex(tc.pts, IndexOptions{R: 16, Kind: IndexRTree})
			indexed, err := Run(ix, tc.p, nil)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := RunBruteForce(tc.pts, tc.p, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Compare in original index space.
			orig := indexed.Remap(ix.Fwd)
			if orig.NumClusters != brute.NumClusters {
				t.Fatalf("clusters: indexed %d vs brute %d", orig.NumClusters, brute.NumClusters)
			}
			if orig.NumNoise() != brute.NumNoise() {
				t.Fatalf("noise: indexed %d vs brute %d", orig.NumNoise(), brute.NumNoise())
			}
			// Core points and cluster structure are order-independent;
			// border points can tie-break differently only when reachable
			// from two clusters, which EquivalentLabelings treats as a
			// mismatch. Use a small disagreement budget for those ties.
			if d := cluster.DisagreementCount(orig, brute); d > len(tc.pts)/200 {
				t.Fatalf("disagreements = %d (allowed %d)", d, len(tc.pts)/200)
			}
		})
	}
}

func TestRunInvariantToR(t *testing.T) {
	// The leaf occupancy r trades memory for compute but must never change
	// the clustering (candidates are distance-filtered exactly).
	pts := blobs(3, 200, 100, 30, 1, 20)
	p := Params{Eps: 0.9, MinPts: 5}
	var base *cluster.Result
	for _, r := range []int{1, 8, 70, 110, 512} {
		ix := BuildIndex(pts, IndexOptions{R: r, Kind: IndexRTree})
		res, err := Run(ix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		orig := res.Remap(ix.Fwd)
		if base == nil {
			base = orig
			continue
		}
		if !cluster.EquivalentLabelings(base, orig) {
			t.Fatalf("r=%d changed the clustering", r)
		}
	}
}

func TestRunEmptyAndDegenerate(t *testing.T) {
	// Empty database.
	ix := BuildIndex(nil, IndexOptions{Kind: IndexRTree})
	res, err := Run(ix, Params{Eps: 1, MinPts: 4}, nil)
	if err != nil || res.Len() != 0 || res.NumClusters != 0 {
		t.Fatalf("empty: res=%v err=%v", res, err)
	}
	// Single point: noise for minpts > 1.
	ix = BuildIndex([]geom.Point{{X: 1, Y: 1}}, IndexOptions{Kind: IndexRTree})
	res, _ = Run(ix, Params{Eps: 1, MinPts: 2}, nil)
	if res.NumNoise() != 1 {
		t.Error("single point should be noise")
	}
	// Single point with minpts=1 forms a singleton cluster.
	res, _ = Run(ix, Params{Eps: 1, MinPts: 1}, nil)
	if res.NumClusters != 1 || res.NumNoise() != 0 {
		t.Errorf("minpts=1 single point: %v", res)
	}
	// All-duplicate points: one cluster.
	dup := make([]geom.Point, 50)
	for i := range dup {
		dup[i] = geom.Point{X: 3, Y: 3}
	}
	ix = BuildIndex(dup, IndexOptions{R: 7, Kind: IndexRTree})
	res, _ = Run(ix, Params{Eps: 0.1, MinPts: 4}, nil)
	if res.NumClusters != 1 || res.NumClustered() != 50 {
		t.Errorf("duplicates: %v", res)
	}
	// Collinear points spaced exactly eps apart: one chain cluster with
	// minpts=2 (each interior point has 3 neighbors including itself).
	line := make([]geom.Point, 30)
	for i := range line {
		line[i] = geom.Point{X: float64(i) * 1.0, Y: 0}
	}
	ix = BuildIndex(line, IndexOptions{R: 4, Kind: IndexRTree})
	res, _ = Run(ix, Params{Eps: 1.0, MinPts: 2}, nil)
	if res.NumClusters != 1 || res.NumNoise() != 0 {
		t.Errorf("collinear chain: %v", res)
	}
}

func TestAllNoise(t *testing.T) {
	// Points too far apart for any cluster.
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i * 100), Y: float64(i * 100)}
	}
	ix := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	res, _ := Run(ix, Params{Eps: 1, MinPts: 2}, nil)
	if res.NumClusters != 0 || res.NumNoise() != 20 {
		t.Errorf("all-noise: %v", res)
	}
}

func TestOneGiantCluster(t *testing.T) {
	// eps large enough to span everything: one cluster, no noise.
	pts := blobs(5, 100, 100, 10, 1, 30)
	ix := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	res, _ := Run(ix, Params{Eps: 100, MinPts: 4}, nil)
	if res.NumClusters != 1 {
		t.Errorf("clusters = %d, want 1", res.NumClusters)
	}
	if res.NumNoise() != 0 {
		t.Errorf("noise = %d, want 0", res.NumNoise())
	}
}

func TestIncreasingMinptsIncreasesNoise(t *testing.T) {
	// Paper §II-A: increasing minpts increases the number of noise points.
	pts := blobs(4, 150, 200, 30, 1, 40)
	ix := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	prevNoise := -1
	for _, mp := range []int{2, 4, 8, 16, 32, 64} {
		res, err := Run(ix, Params{Eps: 0.8, MinPts: mp}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumNoise() < prevNoise {
			t.Fatalf("minpts=%d: noise %d decreased from %d", mp, res.NumNoise(), prevNoise)
		}
		prevNoise = res.NumNoise()
	}
}

func TestIncreasingEpsNeverShrinksClusteredSet(t *testing.T) {
	// The reuse inclusion criteria rest on this monotonicity: growing eps
	// (same minpts) can only move points from noise into clusters.
	pts := blobs(3, 150, 150, 25, 1, 50)
	ix := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	prev := -1
	for _, eps := range []float64{0.3, 0.5, 0.8, 1.2, 2.0} {
		res, err := Run(ix, Params{Eps: eps, MinPts: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClustered() < prev {
			t.Fatalf("eps=%g: clustered %d shrank from %d", eps, res.NumClustered(), prev)
		}
		prev = res.NumClustered()
	}
}

func TestCorePoints(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.1, Y: 0}, {X: 0.2, Y: 0}, // dense triple
		{X: 10, Y: 10}, // isolated
	}
	ix := BuildIndex(pts, IndexOptions{Kind: IndexRTree})
	core := CorePoints(ix, Params{Eps: 0.5, MinPts: 3}, nil)
	nCore := 0
	for _, c := range core {
		if c {
			nCore++
		}
	}
	if nCore != 3 {
		t.Errorf("core points = %d, want 3", nCore)
	}
}

func TestMetricsAccountingDuringRun(t *testing.T) {
	pts := blobs(2, 300, 100, 20, 0.8, 60)
	ix := BuildIndex(pts, IndexOptions{R: 32, Kind: IndexRTree})
	var m metrics.Counters
	if _, err := Run(ix, Params{Eps: 0.5, MinPts: 4}, &m); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	// Every point is either visited via the outer loop or the frontier;
	// each visit does exactly one search, so searches == |D|.
	if s.NeighborSearches != int64(len(pts)) {
		t.Errorf("searches = %d, want %d", s.NeighborSearches, len(pts))
	}
	if s.CandidatesExamined < s.NeighborsFound {
		t.Error("candidates < neighbors found")
	}
}

func TestHigherRExaminesMoreCandidates(t *testing.T) {
	// The indexing trade-off (paper §IV-A): larger r -> fewer node visits,
	// more candidates to filter.
	pts := blobs(3, 2000, 500, 40, 1, 70)
	p := Params{Eps: 0.5, MinPts: 4}
	var prevCand, prevNodes int64
	for i, r := range []int{1, 70} {
		ix := BuildIndex(pts, IndexOptions{R: r, Kind: IndexRTree})
		var m metrics.Counters
		if _, err := Run(ix, p, &m); err != nil {
			t.Fatal(err)
		}
		s := m.Snapshot()
		if i == 1 {
			if s.CandidatesExamined <= prevCand {
				t.Errorf("r=70 candidates %d should exceed r=1 candidates %d",
					s.CandidatesExamined, prevCand)
			}
			if s.NodesVisited >= prevNodes {
				t.Errorf("r=70 node visits %d should be below r=1 visits %d",
					s.NodesVisited, prevNodes)
			}
		}
		prevCand, prevNodes = s.CandidatesExamined, s.NodesVisited
	}
}

func TestBruteForceNaNSafety(t *testing.T) {
	// NaN coordinates must not crash; NaN distance comparisons are false,
	// so such points end up as noise.
	pts := []geom.Point{{X: math.NaN(), Y: 0}, {X: 0, Y: 0}, {X: 0.1, Y: 0}, {X: 0.2, Y: 0}}
	res, err := RunBruteForce(pts, Params{Eps: 0.5, MinPts: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != cluster.Noise {
		t.Errorf("NaN point label = %d, want noise", res.Labels[0])
	}
}

// TestCompactOversizeGuard documents that the int32 guard is wired into
// the build path the Index uses (the unit bounds check lives in rtree;
// here we just pin that BulkLoad still works at realistic sizes and the
// guard constant is the documented one).
func TestCompactOversizeGuard(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 0}
	}
	f := rtree.BulkLoad(pts, nil, nil, rtree.Options{R: 4})
	if f.Len() != 100 {
		t.Fatalf("compact len = %d", f.Len())
	}
	if rtree.ErrFlatTooLarge == nil {
		t.Fatal("guard error must be exported for callers to match")
	}
}
