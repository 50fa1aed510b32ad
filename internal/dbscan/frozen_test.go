package dbscan_test

import (
	"math/rand"
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/metrics"
)

func frozenPoints(n int, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 60, Y: rnd.Float64() * 60}
	}
	return pts
}

// TestIndexFrozenRoundTrip decomposes an index with FrozenParts, rebuilds
// it with IndexFromFrozen, and requires byte-identical DBSCAN labels from
// the mapped-mode index — for both index kinds, with and without a built
// grid.
func TestIndexFrozenRoundTrip(t *testing.T) {
	pts := frozenPoints(4000, 17)
	params := dbscan.Params{Eps: 1.5, MinPts: 4}
	for _, kind := range []dbscan.IndexKind{dbscan.IndexRTree, dbscan.IndexGrid} {
		ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: kind})
		if kind == dbscan.IndexGrid {
			if err := ix.EnsureGrid(params.Eps); err != nil {
				t.Fatalf("EnsureGrid: %v", err)
			}
		}
		want, err := dbscan.Run(ix, params, &metrics.Counters{})
		if err != nil {
			t.Fatalf("kind=%v: run: %v", kind, err)
		}

		parts, err := ix.FrozenParts()
		if err != nil {
			t.Fatalf("kind=%v: FrozenParts: %v", kind, err)
		}
		if kind == dbscan.IndexGrid && parts.Grid == nil {
			t.Fatalf("grid-kind parts carry no grid")
		}
		loaded, err := dbscan.IndexFromFrozen(parts)
		if err != nil {
			t.Fatalf("kind=%v: IndexFromFrozen: %v", kind, err)
		}
		got, err := dbscan.Run(loaded, params, &metrics.Counters{})
		if err != nil {
			t.Fatalf("kind=%v: mapped run: %v", kind, err)
		}
		if len(got.Labels) != len(want.Labels) || got.NumClusters != want.NumClusters {
			t.Fatalf("kind=%v: shape diverged", kind)
		}
		for i := range want.Labels {
			if want.Labels[i] != got.Labels[i] {
				t.Fatalf("kind=%v: label %d: %d vs %d", kind, i, want.Labels[i], got.Labels[i])
			}
		}
	}
}

// TestIndexFromFrozenRejects feeds inconsistent frozen parts and requires
// typed rejection.
func TestIndexFromFrozenRejects(t *testing.T) {
	ix := dbscan.BuildIndex(frozenPoints(300, 37), dbscan.IndexOptions{})
	good, err := ix.FrozenParts()
	if err != nil {
		t.Fatalf("FrozenParts: %v", err)
	}

	badFwd := good
	badFwd.Fwd = append([]int(nil), good.Fwd...)
	badFwd.Fwd[0] = badFwd.Fwd[1] // duplicate — not a permutation
	if _, err := dbscan.IndexFromFrozen(badFwd); err == nil {
		t.Fatalf("non-permutation fwd accepted")
	}

	badCoord := good
	badCoord.X = append([]float64(nil), good.X...)
	badCoord.X[5]++ // SoA no longer matches Pts
	if _, err := dbscan.IndexFromFrozen(badCoord); err == nil {
		t.Fatalf("diverging SoA coords accepted")
	}

	badLen := good
	badLen.Fwd = good.Fwd[:len(good.Fwd)-1]
	if _, err := dbscan.IndexFromFrozen(badLen); err == nil {
		t.Fatalf("length mismatch accepted")
	}

	// A grid is searched alone once installed, so one that covers fewer
	// points than the index — or rides on an R-tree-kind index, which never
	// builds one — must not load.
	gix := dbscan.BuildIndex(frozenPoints(300, 37), dbscan.IndexOptions{Kind: dbscan.IndexGrid})
	if err := gix.EnsureGrid(1.5); err != nil {
		t.Fatalf("EnsureGrid: %v", err)
	}
	gridParts, err := gix.FrozenParts()
	if err != nil {
		t.Fatalf("FrozenParts: %v", err)
	}
	if _, err := dbscan.IndexFromFrozen(gridParts); err != nil {
		t.Fatalf("valid grid parts rejected: %v", err)
	}
	prefix, err := gridindex.Freeze(gridParts.X[:299], gridParts.Y[:299], 1.5)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	prefixParts := prefix.Parts()
	badGrid := gridParts
	badGrid.Grid = &prefixParts
	if _, err := dbscan.IndexFromFrozen(badGrid); err == nil {
		t.Fatalf("grid covering 299 of 300 points accepted")
	}
	wrongKind := gridParts
	wrongKind.Kind = dbscan.IndexRTree
	if _, err := dbscan.IndexFromFrozen(wrongKind); err == nil {
		t.Fatalf("grid section on an R-tree-kind index accepted")
	}
}
