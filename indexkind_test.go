package vdbscan

import (
	"fmt"
	"slices"
	"testing"
)

// samePartition requires a and b to be the exact same clustering up to
// cluster renumbering: identical noise sets and a label bijection. This is
// the right cross-run comparison when execution order (threads > 1, reuse
// source selection) may renumber clusters without changing membership.
func samePartition(t *testing.T, got, want *Clustering, tag string) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: clusters %d vs %d", tag, got.NumClusters, want.NumClusters)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: lengths %d vs %d", tag, len(got.Labels), len(want.Labels))
	}
	fwd := map[int32]int32{}
	rev := map[int32]int32{}
	for i := range want.Labels {
		g, w := got.Labels[i], want.Labels[i]
		if (g <= 0) != (w <= 0) {
			t.Fatalf("%s: point %d noise mismatch: %d vs %d", tag, i, g, w)
		}
		if w <= 0 {
			continue
		}
		if m, ok := fwd[g]; ok && m != w {
			t.Fatalf("%s: cluster %d maps to both %d and %d", tag, g, m, w)
		}
		if m, ok := rev[w]; ok && m != g {
			t.Fatalf("%s: cluster %d mapped from both %d and %d", tag, w, m, g)
		}
		fwd[g], rev[w] = w, g
	}
}

// TestIndexKindLabelEquivalence is the end-to-end cross-kind property. A
// default-strategy sweep runs ε-chains on either kind, every link of which
// emits the canonical form (clusters numbered by ascending minimum core
// point, a border on the lowest-numbered cluster with a core point within ε
// of it), so each variant's bytes must equal Index.Cluster's for its
// parameters on both kinds at every worker width, with reuse on and off.
// The paper's reuse path (Alg. 3/4, SchedGreedy) legitimately numbers
// clusters and attaches borders by its schedule, so against it the sweep
// must be the same partition with the exact same noise set.
func TestIndexKindLabelEquivalence(t *testing.T) {
	pts := testPoints(t, 8000)
	params := CartesianVariants([]float64{1.5, 2, 3}, []int{4, 8, 16})

	rtreeIdx := NewIndex(pts, WithIndexKind(IndexRTree))
	gridIdx := NewIndex(pts, WithIndexKind(IndexGrid))
	single := make([]*Clustering, len(params))
	for vi, p := range params {
		var err error
		if single[vi], err = gridIdx.Cluster(p); err != nil {
			t.Fatal(err)
		}
	}

	for _, threads := range []int{1, 2, 4, 8} {
		for _, reuse := range []bool{true, false} {
			opts := []RunOption{WithThreads(threads)}
			if !reuse {
				opts = append(opts, WithoutReuse())
			}
			t.Run(fmt.Sprintf("threads=%d/reuse=%v", threads, reuse), func(t *testing.T) {
				paper, err := rtreeIdx.ClusterVariants(params, append(opts, WithStrategy(SchedGreedy))...)
				if err != nil {
					t.Fatal(err)
				}
				for kind, ix := range map[IndexKind]*Index{IndexRTree: rtreeIdx, IndexGrid: gridIdx} {
					got, err := ix.ClusterVariants(params, opts...)
					if err != nil {
						t.Fatal(err)
					}
					for vi := range params {
						tag := fmt.Sprintf("%v/%v", kind, params[vi])
						g := got.Results[vi].Clustering
						samePartition(t, g, paper.Results[vi].Clustering, tag)
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
	want, err := NewIndex(pts).Cluster(p)
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
