package vdbscan

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSnapshotLabelIdentity is the exactness property of the durable
// store: an index loaded back from a snapshot must produce byte-identical
// labels to the index it was saved from, across every execution shape —
// both index kinds, untiled and tiled, sequential and parallel, with and
// without reuse, under the default strategy and a paper strategy.
//
// Byte-equality is asserted everywhere under the default SchedEpsChain — its
// sweeps run ε-chains, whose bytes are a function of (points, ε, minpts)
// alone — and under an explicit paper strategy (SchedGreedy) at one worker
// and wherever reuse is off. A multi-worker paper-strategy reuse sweep takes
// each variant's source from whichever variant completed first, completion
// order is timing, and two valid sources differ in cluster numbering and
// border attachment — on one index run twice just as across a reload. There
// the test asserts what every valid source agrees on: the cluster count and
// the exact noise set.
func TestSnapshotLabelIdentity(t *testing.T) {
	pts := testPoints(t, 6000)
	params := []Params{
		{Eps: 2, MinPts: 4},
		{Eps: 3, MinPts: 4},
		{Eps: 4, MinPts: 8},
	}
	for _, kind := range []IndexKind{IndexRTree, IndexGrid} {
		fresh := NewIndex(pts, WithIndexKind(kind))
		// Cluster once first so the grid kind builds its cell grid and the
		// snapshot carries it — the loaded index then serves ε-searches
		// straight from the mapping.
		if _, err := fresh.ClusterVariants(params); err != nil {
			t.Fatalf("kind=%v: warmup: %v", kind, err)
		}
		path := filepath.Join(t.TempDir(), "snapshot")
		if err := fresh.SaveSnapshot(path, 7); err != nil {
			t.Fatalf("kind=%v: SaveSnapshot: %v", kind, err)
		}
		loaded, info, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("kind=%v: LoadSnapshot: %v", kind, err)
		}
		if info.Points != len(pts) || info.Kind != kind || info.Sequence != 7 {
			t.Fatalf("kind=%v: info %+v", kind, info)
		}
		if got := loaded.Points(); len(got) != len(pts) {
			t.Fatalf("kind=%v: loaded %d points, want %d", kind, len(got), len(pts))
		} else {
			for i := range pts {
				if got[i] != pts[i] {
					t.Fatalf("kind=%v: point %d diverged after reload", kind, i)
				}
			}
		}

		for _, tiles := range []int{1, 4, 9} {
			for _, workers := range []int{1, 8} {
				for _, noReuse := range []bool{false, true} {
					for _, strategy := range []SchedStrategy{SchedEpsChain, SchedGreedy} {
						opts := []RunOption{WithTiles(tiles), WithThreads(workers), WithStrategy(strategy)}
						if noReuse {
							opts = append(opts, WithoutReuse())
						}
						name := fmt.Sprintf("kind=%v/tiles=%d/workers=%d/noreuse=%v/%v", kind, tiles, workers, noReuse, strategy)
						want, err := fresh.ClusterVariants(params, opts...)
						if err != nil {
							t.Fatalf("%s: fresh: %v", name, err)
						}
						got, err := loaded.ClusterVariants(params, opts...)
						if err != nil {
							t.Fatalf("%s: loaded: %v", name, err)
						}
						for v := range params {
							w, g := want.Results[v].Clustering, got.Results[v].Clustering
							if w.NumClusters != g.NumClusters {
								t.Fatalf("%s: variant %d: %d vs %d clusters", name, v, w.NumClusters, g.NumClusters)
							}
							for i := range w.Labels {
								same := w.Labels[i] == g.Labels[i]
								if strategy != SchedEpsChain && workers > 1 && !noReuse {
									same = (w.Labels[i] == Noise) == (g.Labels[i] == Noise)
								}
								if !same {
									t.Fatalf("%s: variant %d: label %d: %d vs %d", name, v, i, w.Labels[i], g.Labels[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSaveSnapshotRefusals pins the load-side refusals: a file that is not
// a snapshot must fail typed, a missing one must fail.
func TestSaveSnapshotRefusals(t *testing.T) {
	bogus := filepath.Join(t.TempDir(), "bogus")
	if err := os.WriteFile(bogus, []byte("definitely not a snapshot, but long enough to decode"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(bogus); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("LoadSnapshot(bogus) = %v, want ErrSnapshotCorrupt", err)
	}
	if _, _, err := LoadSnapshot(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatalf("LoadSnapshot of a missing file succeeded")
	}
}

// TestLoadedSnapshotRoundTripsTwice verifies a loaded index is not a dead
// end: it can be snapshotted again and the second generation still
// clusters identically.
func TestLoadedSnapshotRoundTripsTwice(t *testing.T) {
	pts := testPoints(t, 2000)
	fresh := NewIndex(pts)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "s1")
	if err := fresh.SaveSnapshot(p1, 1); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshot(p1)
	if err != nil {
		t.Fatal(err)
	}
	// A loaded snapshot is frozen; saving it again must work and the
	// second generation must load clean.
	p2 := filepath.Join(dir, "s2")
	if err := loaded.SaveSnapshot(p2, 2); err != nil {
		t.Fatalf("re-snapshot of a loaded index: %v", err)
	}
	again, info, err := LoadSnapshot(p2)
	if err != nil {
		t.Fatalf("second-generation load: %v", err)
	}
	if info.Sequence != 2 || again.Len() != len(pts) {
		t.Fatalf("second generation: %+v len=%d", info, again.Len())
	}
	res1, err := loaded.Cluster(Params{Eps: 3, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := again.Cluster(Params{Eps: 3, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Labels {
		if res1.Labels[i] != res2.Labels[i] {
			t.Fatalf("label %d diverged across generations", i)
		}
	}
}
