package dbscan

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/metrics"
)

// TestChainEveryLinkMatchesRun is the property test of the ε-chain: on both
// index kinds, for a small, a middling and a large ε, a chain of
// non-increasing MinPts — duplicates and MinPts 1 included — driven by 1 to
// 8 workers must give, at every link, the bytes of sequential Run on an R-tree index; a link after the
// first must not search; every link's work counters must be the same under
// every division of the work; and a Link must be unchanged by its
// successors, so replaying the chain from the kept Links — or skipping
// straight from the first to the last — gives the same bytes and counters
// again. Run it under -race: links share flags and union-finds by cloning.
func TestChainEveryLinkMatchesRun(t *testing.T) {
	pts := blobs(5, 300, 200, 25, 0.6, 211)
	oracle := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	chain := []int{32, 16, 16, 9, 8, 4, 1}
	ctx := context.Background()
	for _, kind := range []IndexKind{IndexRTree, IndexGrid} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: kind})
		for _, eps := range []float64{0.25, 0.8, 2.5} {
			want := map[int]*cluster.Result{}
			for _, mp := range chain {
				want[mp], _ = Run(oracle, Params{Eps: eps, MinPts: mp}, nil)
			}
			var base []metrics.Snapshot // per link, from the first configuration
			for workers := 1; workers <= 8; workers++ {
				opt := ParallelOptions{Workers: workers}
				tag := fmt.Sprintf("%v eps=%g workers=%d", kind, eps, workers)
				run := func(mp int, prev *Link) (*Link, metrics.Snapshot) {
					t.Helper()
					var m metrics.Counters
					res, link, err := RunLink(ctx, ix, Params{Eps: eps, MinPts: mp}, prev, opt, &m)
					if err != nil {
						t.Fatalf("%s minpts=%d: %v", tag, mp, err)
					}
					requireIdentical(t, res, want[mp], fmt.Sprintf("%s minpts=%d", tag, mp))
					return link, m.Snapshot()
				}
				links := make([]*Link, len(chain))
				work := make([]metrics.Snapshot, len(chain))
				var prev *Link
				for i, mp := range chain {
					links[i], work[i] = run(mp, prev)
					if i > 0 && work[i].NeighborSearches != 0 {
						t.Fatalf("%s minpts=%d: an inherited link ran %d ε-searches", tag, mp, work[i].NeighborSearches)
					}
					prev = links[i]
				}
				if work[0].NeighborSearches == 0 && kind == IndexRTree {
					t.Fatalf("%s: the first link searched nothing", tag)
				}
				if base == nil {
					base = work
				}
				for i := range chain {
					if work[i] != base[i] {
						t.Fatalf("%s minpts=%d: work %+v, at one worker %+v", tag, chain[i], work[i], base[i])
					}
				}
				for i := 1; i < len(chain); i++ {
					if _, again := run(chain[i], links[i-1]); again != work[i] {
						t.Fatalf("%s minpts=%d: second replay counted %+v, first %+v", tag, chain[i], again, work[i])
					}
				}
				run(chain[len(chain)-1], links[0])
			}
		}
	}
}

// TestChainAdvanceWithGaps drives one chain whose MinPts fall by uneven
// gaps — 40, 32, 17, 9, 3, 1 — on both index kinds at 1 and 3 workers: a
// head from scratch, then every later link advanced in place. Each link
// must give Run's bytes, the same work at both widths, and replay exactly
// the points that turn core at it: zero ε-searches, and as candidates the
// sum of k over the points with MinPts <= k < the previous link's MinPts,
// k each point's ε-neighbour count, counted here by brute force.
func TestChainAdvanceWithGaps(t *testing.T) {
	pts := blobs(5, 300, 200, 25, 0.6, 213)
	const eps = 0.8
	chain := []int{40, 32, 17, 9, 3, 1}
	k := make([]int, len(pts))
	for i, a := range pts {
		for _, b := range pts {
			if a.Within(b, eps) {
				k[i]++
			}
		}
	}
	oracle := BuildIndex(pts, IndexOptions{R: 16, Kind: IndexRTree})
	ctx := context.Background()
	for _, kind := range []IndexKind{IndexRTree, IndexGrid} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: kind})
		var base []metrics.Snapshot
		for _, workers := range []int{1, 3} {
			opt := ParallelOptions{Workers: workers}
			var link *Link
			var work []metrics.Snapshot
			for i, mp := range chain {
				tag := fmt.Sprintf("%v workers=%d minpts=%d", kind, workers, mp)
				p := Params{Eps: eps, MinPts: mp}
				var m metrics.Counters
				var res *cluster.Result
				var err error
				if i == 0 {
					res, link, err = RunLink(ctx, ix, p, nil, opt, &m)
				} else {
					res, err = link.Advance(ctx, p, opt, &m)
				}
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				want, _ := Run(oracle, p, nil)
				requireIdentical(t, res, want, tag)
				if link.Params() != p {
					t.Fatalf("%s: the link reads %v after the run", tag, link.Params())
				}
				work = append(work, m.Snapshot())
				if i == 0 {
					continue
				}
				var turned int64
				for _, kk := range k {
					if mp <= kk && kk < chain[i-1] {
						turned += int64(kk)
					}
				}
				if turned == 0 {
					t.Fatalf("%s: degenerate fixture, no point turns core", tag)
				}
				if got := work[i]; got.NeighborSearches != 0 || got.CandidatesExamined != turned {
					t.Fatalf("%s: %d ε-searches and %d candidates, want 0 and %d", tag, got.NeighborSearches, got.CandidatesExamined, turned)
				}
			}
			if base == nil {
				base = work
			} else if !slices.Equal(work, base) {
				t.Fatalf("%v: work at 3 workers %+v, at 1 %+v", kind, work, base)
			}
			if _, err := link.Advance(ctx, Params{Eps: eps, MinPts: 2}, opt, nil); err == nil {
				t.Fatalf("%v: a link at MinPts 1 advanced to MinPts 2", kind)
			}
		}
	}
}

// TestChainUnservedLinkRunsFromScratch pins the fallback: a predecessor
// with another ε, or with a smaller MinPts than the run asks for, cannot
// serve it, and the run must do — and count — the work of one without a
// predecessor.
func TestChainUnservedLinkRunsFromScratch(t *testing.T) {
	pts := blobs(4, 300, 150, 25, 0.6, 107)
	ctx := context.Background()
	for _, kind := range []IndexKind{IndexRTree, IndexGrid} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: kind})
		if err := ix.EnsureGrid(1.2); err != nil { // one search grid for every run below
			t.Fatal(err)
		}
		p := Params{Eps: 0.8, MinPts: 8}
		var scratch metrics.Counters
		want, _, err := RunLink(ctx, ix, p, nil, ParallelOptions{Workers: 2}, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		for _, pp := range []Params{{Eps: 1.2, MinPts: 8}, {Eps: 0.8, MinPts: 4}} {
			_, prev, err := RunLink(ctx, ix, pp, nil, ParallelOptions{Workers: 2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if prev.Serves(p) {
				t.Fatalf("%v: a link of %v claims to serve %v", kind, pp, p)
			}
			var m metrics.Counters
			got, _, err := RunLink(ctx, ix, p, prev, ParallelOptions{Workers: 2}, &m)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, fmt.Sprintf("%v after %v", kind, pp))
			if m.Snapshot() != scratch.Snapshot() {
				t.Fatalf("%v after %v: work %+v, from scratch %+v", kind, pp, m.Snapshot(), scratch.Snapshot())
			}
		}
	}
}

// TestLinkBytesCountsItsSlices: a Link's Bytes is what its slices hold —
// a 4-byte core flag and a 4-byte parent per point and 4 bytes per word of
// its non-core records — on a head and on a replay.
func TestLinkBytesCountsItsSlices(t *testing.T) {
	ix := BuildIndex(blobs(4, 300, 150, 25, 0.6, 108), IndexOptions{Kind: IndexGrid})
	var prev *Link
	for _, mp := range []int{16, 4} {
		_, link, err := RunLink(context.Background(), ix, Params{Eps: 0.8, MinPts: mp}, prev, ParallelOptions{Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		words := 0
		for _, arena := range link.s.borders {
			words += len(arena)
		}
		if words == 0 {
			t.Fatalf("minpts=%d: degenerate fixture, no non-core record", mp)
		}
		if want := int64(4*len(link.s.core) + 4*link.s.dsu.Len() + 4*words); link.Bytes() != want {
			t.Fatalf("minpts=%d: Bytes = %d, the slices hold %d", mp, link.Bytes(), want)
		}
		prev = link
	}
}
