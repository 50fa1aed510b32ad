package vdbscan

import (
	"fmt"
	"math"
	"slices"
	"testing"
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
// at any width (intra-variant parallelism is deterministic by design).
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
			opts = append(opts, WithIntraThreads(intra))
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
