package vdbscan

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vdbscan/internal/persist"
	"vdbscan/internal/rtree"
)

// Compile-time pinning of the two-tier option split: each constructor must
// stay at its tier (index-layout knobs are not run options and vice versa),
// shared observability options must satisfy both, and everything must
// remain assignable to the deprecated Option supertype so existing
// heterogeneous []Option slices keep compiling.
var (
	_ IndexOption = WithR(70)
	_ IndexOption = WithBinWidth(1)
	_ IndexOption = WithIndexKind(IndexGrid)

	_ RunOption = WithThreads(2)
	_ RunOption = WithIntraThreads(2)
	_ RunOption = WithTiles(4)
	_ RunOption = WithoutReuse()
	_ RunOption = WithContext(context.Background())
	_ RunOption = WithProgress(nil)

	_ SharedOption = WithWork(nil)
	_ SharedOption = WithTracer(nil)

	_ []Option = []Option{
		WithR(70), WithThreads(2), WithWork(nil), WithTracer(nil),
		WithIndexKind(IndexRTree), WithProgress(nil),
	}
)

// TestOptionTierMisuseRejected pins the negative side of the split with the
// type system itself: an index option must not satisfy RunOption and a run
// option must not satisfy IndexOption. (A constructor changing tier flips
// one of these type assertions.)
func TestOptionTierMisuseRejected(t *testing.T) {
	if _, ok := any(WithR(70)).(RunOption); ok {
		t.Error("WithR satisfies RunOption")
	}
	if _, ok := any(WithThreads(8)).(IndexOption); ok {
		t.Error("WithThreads satisfies IndexOption")
	}
	if _, ok := any(WithoutReuse()).(IndexOption); ok {
		t.Error("WithoutReuse satisfies IndexOption")
	}
}

// TestSplitOptionsRouting: the one-shot entry points must deliver every
// option in a mixed list to the tier(s) it belongs to.
func TestSplitOptionsRouting(t *testing.T) {
	var w Work
	opts := []Option{WithR(32), WithThreads(2), WithWork(&w)}
	ix, run := splitOptions(opts)
	if len(ix) != 2 { // WithR + shared WithWork
		t.Fatalf("index options = %d, want 2", len(ix))
	}
	if len(run) != 2 { // WithThreads + shared WithWork
		t.Fatalf("run options = %d, want 2", len(run))
	}
	pts := testPoints(t, 2000)
	res, err := Cluster(pts, Params{Eps: 3, MinPts: 4}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(pts) {
		t.Fatalf("labels = %d", res.Len())
	}
	if w.NeighborSearches == 0 {
		t.Error("WithWork not routed through the one-shot path")
	}
}

// TestSentinelReexports: the root sentinels must be the internal values
// themselves so errors.Is matches across the facade boundary.
func TestSentinelReexports(t *testing.T) {
	if !errors.Is(ErrFlatTooLarge, rtree.ErrFlatTooLarge) {
		t.Error("ErrFlatTooLarge does not match rtree sentinel")
	}
	if !errors.Is(ErrSnapshotCorrupt, persist.ErrSnapshotCorrupt) {
		t.Error("ErrSnapshotCorrupt does not match persist sentinel")
	}
	if !errors.Is(ErrSnapshotVersion, persist.ErrSnapshotVersion) {
		t.Error("ErrSnapshotVersion does not match persist sentinel")
	}
}

// TestFacadeErrorContract: every error crossing the facade carries the
// "vdbscan: " prefix exactly once and keeps its cause chain matchable.
func TestFacadeErrorContract(t *testing.T) {
	pts := testPoints(t, 2000)
	checkPrefix := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		if !strings.HasPrefix(err.Error(), "vdbscan: ") {
			t.Errorf("%s: error %q lacks the vdbscan: prefix", name, err)
		}
		if strings.Count(err.Error(), "vdbscan: ") != 1 {
			t.Errorf("%s: error %q stutters the prefix", name, err)
		}
	}
	_, err := Cluster(pts, Params{Eps: 0, MinPts: 4})
	checkPrefix("Cluster invalid params", err)

	_, err = ClusterVariants(pts, nil)
	checkPrefix("ClusterVariants empty", err)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ClusterVariants(pts, CartesianVariants([]float64{2, 3}, []int{4}), WithContext(ctx))
	checkPrefix("ClusterVariants canceled", err)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run error %v does not match context.Canceled", err)
	}

	inc, err := NewIncremental(Params{Eps: 2, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	inc.Insert(Point{X: 0, Y: 0})
	err = inc.Delete(99)
	checkPrefix("Incremental.Delete out of range", err)

	_, err = NewIncremental(Params{Eps: -1, MinPts: 4})
	checkPrefix("NewIncremental invalid params", err)

	_, err = Quality(&Clustering{Labels: []int32{1}}, &Clustering{Labels: []int32{1, 1}})
	checkPrefix("Quality length mismatch", err)
}

// wrapErr must be idempotent and nil-transparent.
func TestWrapErr(t *testing.T) {
	if wrapErr(nil) != nil {
		t.Error("wrapErr(nil) != nil")
	}
	base := errors.New("vdbscan: already prefixed")
	if wrapErr(base) != base {
		t.Error("wrapErr re-wrapped an already-prefixed error")
	}
	wrapped := wrapErr(context.DeadlineExceeded)
	if !errors.Is(wrapped, context.DeadlineExceeded) {
		t.Error("wrapErr broke the cause chain")
	}
}
