package dbscan

import (
	"context"
	"fmt"
	"testing"

	"vdbscan/internal/cluster"
	"vdbscan/internal/metrics"
)

// TestChainEveryLinkMatchesRun is the property test of the ε-chain: on both
// index kinds, for a small, a middling and a large ε, a chain of
// non-increasing MinPts — duplicates and MinPts 1 included — driven by 1 to
// 8 workers with and without donated Helper goroutines must give, at every
// link, the bytes of sequential Run on an R-tree index; a link after the
// first must not search; every link's work counters must be the same under
// every division of the work; and a Link must be unchanged by its
// successors, so replaying the chain from the kept Links — or skipping
// straight from the first to the last — gives the same bytes and counters
// again. Run it under -race: links share flags and union-finds by cloning.
func TestChainEveryLinkMatchesRun(t *testing.T) {
	pts := blobs(5, 300, 200, 25, 0.6, 211)
	oracle := BuildIndex(pts, IndexOptions{R: 16})
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
				for _, donors := range []int{0, 3} {
					opt := ParallelOptions{Workers: workers}
					if donors > 0 {
						opt.Helper = &waitHelper{donors: donors}
					}
					tag := fmt.Sprintf("%v eps=%g workers=%d donors=%d", kind, eps, workers, donors)
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

// TestSeqLinkHeadsTheChain pins RunSeqLink against the parallel head it
// stands in for: Run's bytes and work counters, and a Link that every later
// link replays to the same bytes and counters as the links after a
// RunLink head — on both kinds, so the records cannot depend on the search
// structure either.
func TestSeqLinkHeadsTheChain(t *testing.T) {
	pts := blobs(5, 300, 200, 25, 0.6, 307)
	chain := []int{32, 16, 9, 4, 1}
	ctx := context.Background()
	for _, kind := range []IndexKind{IndexRTree, IndexGrid} {
		ix := BuildIndex(pts, IndexOptions{R: 16, Kind: kind})
		for _, eps := range []float64{0.25, 0.8, 2.5} {
			head := Params{Eps: eps, MinPts: chain[0]}
			var want, got metrics.Counters
			ref, _ := Run(ix, head, &want)
			res, seq, err := RunSeqLink(ctx, ix, head, &got)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%v eps=%g", kind, eps)
			requireIdentical(t, res, ref, tag+" head")
			if got.Snapshot() != want.Snapshot() {
				t.Fatalf("%s head: work %+v, Run %+v", tag, got.Snapshot(), want.Snapshot())
			}
			_, par, err := RunLink(ctx, ix, head, nil, ParallelOptions{Workers: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, mp := range chain[1:] {
				p := Params{Eps: eps, MinPts: mp}
				ref, _ := Run(ix, p, nil)
				var ms, mp2 metrics.Counters
				a, next, err := RunLink(ctx, ix, p, seq, ParallelOptions{Workers: 1}, &ms)
				if err != nil {
					t.Fatal(err)
				}
				b, nextPar, err := RunLink(ctx, ix, p, par, ParallelOptions{Workers: 1}, &mp2)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, a, ref, fmt.Sprintf("%s minpts=%d", tag, mp))
				requireIdentical(t, b, ref, fmt.Sprintf("%s minpts=%d (parallel head)", tag, mp))
				if ms.Snapshot() != mp2.Snapshot() || ms.Snapshot().NeighborSearches != 0 {
					t.Fatalf("%s minpts=%d: replay work %+v, after the parallel head %+v", tag, mp, ms.Snapshot(), mp2.Snapshot())
				}
				seq, par = next, nextPar
			}
		}
	}
}
