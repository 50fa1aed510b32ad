package vdbscan

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vdbscan/internal/dbscan"
)

// TestIndexKindLabelEquivalence is the end-to-end cross-kind property. A
// sweep runs ε-chains on either kind, every link of which emits the
// canonical form (clusters numbered by ascending minimum core point, a
// border on the lowest-numbered cluster with a core point within ε of it),
// so each variant's bytes — and the default index's Cluster bytes —
// must equal an explicit R-tree index's Index.Cluster for its parameters on
// both kinds at every worker width, with reuse on and off, NaN and ±Inf
// points included (noise on either kind).
func TestIndexKindLabelEquivalence(t *testing.T) {
	inf := math.Inf(1)
	pts := append(testPoints(t, 8000), Point{X: math.NaN(), Y: 5}, Point{X: inf, Y: 5}, Point{X: 5, Y: -inf})
	params := CartesianVariants([]float64{1.5, 2, 3}, []int{4, 8, 16})

	rtreeIdx := NewIndex(pts, WithIndexKind(IndexRTree))
	gridIdx := NewIndex(pts) // the default kind
	single := make([]*Clustering, len(params))
	for vi, p := range params {
		var err error
		if single[vi], err = rtreeIdx.Cluster(p); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{8000, 8001, 8002} {
			if single[vi].Labels[i] != Noise {
				t.Fatalf("%v: non-finite point %d labelled %d", p, i, single[vi].Labels[i])
			}
		}
	}

	for _, threads := range []int{1, 2, 4, 8} {
		for _, reuse := range []bool{true, false} {
			opts := []RunOption{WithThreads(threads)}
			if !reuse {
				opts = append(opts, WithoutReuse())
			}
			t.Run(fmt.Sprintf("threads=%d/reuse=%v", threads, reuse), func(t *testing.T) {
				for vi, p := range params {
					got, err := gridIdx.Cluster(p, WithThreads(threads))
					if err != nil {
						t.Fatal(err)
					}
					if got.NumClusters != single[vi].NumClusters || !slices.Equal(got.Labels, single[vi].Labels) {
						t.Fatalf("default kind %v: Cluster bytes differ from the R-tree's", p)
					}
				}
				for kind, ix := range map[IndexKind]*Index{IndexRTree: rtreeIdx, IndexGrid: gridIdx} {
					got, err := ix.ClusterVariants(params, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for vi := range params {
						tag := fmt.Sprintf("%v/%v", kind, params[vi])
						g := got.Results[vi].Clustering
						if g.NumClusters != single[vi].NumClusters || !slices.Equal(g.Labels, single[vi].Labels) {
							t.Fatalf("%s: sweep bytes differ from Index.Cluster's", tag)
						}
						if inherited := reuse && params[vi].MinPts < 16; got.Results[vi].FromScratch == inherited {
							t.Fatalf("%s: FromScratch = %v, want %v", tag, inherited, !inherited)
						}
					}
				}
			})
		}
	}
}

// TestIndexKindSingleCluster pins the single-variant path (Index.Cluster)
// and the intra-variant parallel path across kinds: byte-identical labels
// at any WithThreads width (intra-variant parallelism is deterministic by
// design).
func TestIndexKindSingleCluster(t *testing.T) {
	pts := testPoints(t, 6000)
	p := Params{Eps: 2.5, MinPts: 5}
	want, err := NewIndex(pts, WithIndexKind(IndexRTree)).Cluster(p)
	if err != nil {
		t.Fatal(err)
	}
	gridIdx := NewIndex(pts, WithIndexKind(IndexGrid))
	for _, intra := range []int{0, 1, 4} {
		var opts []RunOption
		if intra > 0 {
			opts = append(opts, WithThreads(intra))
		}
		got, err := gridIdx.Cluster(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != want.NumClusters {
			t.Fatalf("intra=%d: clusters %d vs %d", intra, got.NumClusters, want.NumClusters)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("intra=%d: label[%d] = %d, want %d", intra, i, got.Labels[i], want.Labels[i])
			}
		}
	}
}

// TestNonFinitePointsKeepFiniteLabels: appending points with a NaN or
// infinite coordinate leaves every finite point's label byte-identical on
// both kinds. The bin sort takes its origin from the finite points only,
// so one x = -Inf point cannot move every other point's bin.
func TestNonFinitePointsKeepFiniteLabels(t *testing.T) {
	inf := math.Inf(1)
	pts := testPoints(t, 6000)
	odd := append(slices.Clip(pts), Point{X: -inf, Y: 3}, Point{X: 10, Y: math.NaN()}, Point{X: inf, Y: -inf}, Point{X: 4, Y: inf})
	p := Params{Eps: 2.5, MinPts: 5}
	for _, kind := range []IndexKind{IndexGrid, IndexRTree} {
		want, err := Cluster(pts, p, WithIndexKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Cluster(odd, p, WithIndexKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels[:len(pts)], want.Labels) {
			t.Fatalf("%v: finite labels changed when non-finite points were appended", kind)
		}
		for i := len(pts); i < len(odd); i++ {
			if got.Labels[i] != Noise {
				t.Fatalf("%v: non-finite point %d labelled %d", kind, i, got.Labels[i])
			}
		}
	}
}

// TestIndexKindHugeMinPts: a MinPts no cell count can reach makes every
// point noise on both kinds, through Cluster and through a ClusterVariants
// ε-chain that ends in an ordinary MinPts, with the R-tree's bytes. A cell
// count compared in int32 once wrapped 2³²+4 to 4 on the grid and
// indexed out of range at 2³¹.
func TestIndexKindHugeMinPts(t *testing.T) {
	pts := testPoints(t, 2000)
	huge := []int{math.MaxInt32, math.MaxInt32 + 1, 1<<32 + 4}
	params := []Params{{Eps: 2, MinPts: 4}}
	for _, mp := range huge {
		params = append(params, Params{Eps: 2, MinPts: mp})
	}
	rtreeIdx := NewIndex(pts, WithIndexKind(IndexRTree))
	want := make([]*Clustering, len(params))
	for vi, p := range params {
		var err error
		if want[vi], err = rtreeIdx.Cluster(p); err != nil {
			t.Fatal(err)
		}
	}
	if want[0].NumClusters == 0 {
		t.Fatal("fixture has no cluster at MinPts 4")
	}
	for _, w := range want[1:] {
		if w.NumClusters != 0 || w.NumNoise() != len(pts) {
			t.Fatalf("R-tree: %d clusters, %d noise at a huge MinPts", w.NumClusters, w.NumNoise())
		}
	}

	for _, kind := range []IndexKind{IndexGrid, IndexRTree} {
		ix := NewIndex(pts, WithIndexKind(kind))
		for _, threads := range []int{1, 2} {
			for vi, p := range params {
				got, err := ix.Cluster(p, WithThreads(threads))
				if err != nil {
					t.Fatal(err)
				}
				if got.NumClusters != want[vi].NumClusters || !slices.Equal(got.Labels, want[vi].Labels) {
					t.Fatalf("%v threads=%d %v: Cluster bytes differ from the R-tree's", kind, threads, p)
				}
			}
			run, err := ix.ClusterVariants(params, WithThreads(threads))
			if err != nil {
				t.Fatal(err)
			}
			for vi, vr := range run.Results {
				g := vr.Clustering
				if g.NumClusters != want[vi].NumClusters || !slices.Equal(g.Labels, want[vi].Labels) {
					t.Fatalf("%v threads=%d %v: sweep bytes differ from the R-tree's", kind, threads, params[vi])
				}
			}
		}
	}
}

// TestGridCoversOverflowingSpan: finite points whose extent is wider than
// the float range (max − min overflows to +Inf) are clustered by the
// default grid, with the bytes of brute-force DBSCAN in the index's order,
// through Cluster and ClusterVariants at one and two threads. The grid
// once refused such a set with ErrGridTooLarge while the R-tree answered
// it, and vdbscand failed every job on an accepted upload of it.
func TestGridCoversOverflowingSpan(t *testing.T) {
	params := []Params{{Eps: 2, MinPts: 2}, {Eps: 2, MinPts: 3}, {Eps: 1.2, MinPts: 2}}
	for _, hi := range []float64{1e308, 1e307, 1.7e308, math.MaxFloat64} {
		sets := map[string][]Point{
			"far pair": {{X: -hi, Y: 0}, {X: hi, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 1}},
			"ends": {{X: hi, Y: 0}, {X: -hi, Y: 0}, {X: 0, Y: 0.5}, {X: -hi, Y: 1}, {X: hi, Y: 1.5},
				{X: 0, Y: 0}, {X: hi, Y: -4}, {X: 0, Y: 1}, {X: -hi, Y: 2}},
		}
		for name, pts := range sets {
			ix := NewIndex(pts)
			want := make([]*Clustering, len(params))
			for i, p := range params {
				ref, err := dbscan.RunBruteForce(ix.ix.Pts, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ref.Remap(ix.ix.Fwd)
			}
			for _, threads := range []int{1, 2} {
				tag := fmt.Sprintf("%s hi=%g threads=%d", name, hi, threads)
				for i, p := range params {
					got, err := Cluster(pts, p, WithThreads(threads))
					if err != nil {
						t.Fatalf("%s %v: Cluster: %v", tag, p, err)
					}
					if got.NumClusters != want[i].NumClusters || !slices.Equal(got.Labels, want[i].Labels) {
						t.Fatalf("%s %v: Cluster labels %v, want %v", tag, p, got.Labels, want[i].Labels)
					}
				}
				run, err := ClusterVariants(pts, params, WithThreads(threads))
				if err != nil {
					t.Fatalf("%s: ClusterVariants: %v", tag, err)
				}
				for i, vr := range run.Results {
					if !slices.Equal(vr.Clustering.Labels, want[i].Labels) {
						t.Fatalf("%s %v: ClusterVariants labels %v, want %v", tag, params[i], vr.Clustering.Labels, want[i].Labels)
					}
				}
			}
		}
	}
	got, err := Cluster([]Point{{X: -1e308, Y: 0}, {X: 1e308, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 1}}, Params{Eps: 2, MinPts: 2})
	if err != nil || !slices.Equal(got.Labels, []int32{-1, -1, 1, 1}) {
		t.Fatalf("±1e308 set: %v, %v; want [-1 -1 1 1]", got, err)
	}
}
