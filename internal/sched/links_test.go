package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
	"vdbscan/internal/variant"
)

// TestExecuteLinksServeHeads: on both index kinds and at 1, 2 and 4
// threads, a second run of a variant set with the first run's library
// replays every chain head — no variant from scratch, FractionReused 1, a
// head's SourceID -1 and a later link's its predecessor — at zero
// ε-searches, with every label byte of dbscan.Run. WithoutReuse
// (DisableReuse) leaves the library alone.
func TestExecuteLinksServeHeads(t *testing.T) {
	vs := variant.Product([]float64{0.8, 0.3, 0.5}, []int{4, 16, 8})
	for _, ix := range []*dbscan.Index{testIndex(t), testGridIndex()} {
		want := make([][]int32, len(vs))
		for _, v := range vs {
			res, _ := dbscan.Run(ix, v.Params, nil)
			want[v.ID] = res.Remap(ix.Fwd).Labels
		}
		for _, threads := range []int{1, 2, 4} {
			tag := fmt.Sprintf("%v T=%d", ix.Kind, threads)
			lib := NewLinks(ix)
			for pass := 0; pass < 3; pass++ {
				var m metrics.Counters
				rr, err := Execute(ix, vs, Options{Threads: threads, Metrics: &m, Links: lib, DisableReuse: pass == 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rr.Results {
					if !slices.Equal(r.Result.Labels, want[r.Variant.ID]) {
						t.Fatalf("%s pass %d variant %v: labels differ from dbscan.Run", tag, pass, r.Variant)
					}
					head := r.Variant.Params.MinPts == 16
					switch {
					case pass == 2 && (!r.FromScratch || r.SourceID != -1):
						t.Errorf("%s DisableReuse: variant %v replayed (source %d)", tag, r.Variant, r.SourceID)
					case pass == 1 && (r.FromScratch || r.FractionReused != 1):
						t.Errorf("%s: variant %v not served on the second run", tag, r.Variant)
					case pass == 1 && head && r.SourceID != -1:
						t.Errorf("%s: library-served head %v names source %d", tag, r.Variant, r.SourceID)
					case pass < 2 && !head && r.SourceID < 0:
						t.Errorf("%s pass %d: chain link %v names no predecessor", tag, pass, r.Variant)
					case pass == 0 && head != r.FromScratch:
						t.Errorf("%s: first run's variant %v FromScratch %v", tag, r.Variant, r.FromScratch)
					}
				}
				if s := m.Snapshot().NeighborSearches; pass == 1 && s != 0 {
					t.Errorf("%s: a fully served run did %d ε-searches", tag, s)
				}
			}
		}
	}
}

// TestExecuteForeignLinks: a library is bound to the index it was made for.
func TestExecuteForeignLinks(t *testing.T) {
	vs := variant.Product([]float64{0.5}, []int{4})
	_, err := Execute(testGridIndex(), vs, Options{Links: NewLinks(testGridIndex())})
	if !errors.Is(err, ErrForeignLinks) {
		t.Fatalf("err = %v, want ErrForeignLinks", err)
	}
}

// TestLinksOffer pins the library's rules: an ε keeps the Link of its
// largest MinPts, a Link alone over the byte budget is never kept, and past
// the budget the least recently used ε goes first.
func TestLinksOffer(t *testing.T) {
	ix := testGridIndex()
	link := func(eps float64, mp int) *dbscan.Link {
		t.Helper()
		_, l, err := dbscan.RunLink(context.Background(), ix, dbscan.Params{Eps: eps, MinPts: mp}, nil, dbscan.ParallelOptions{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	lib := NewLinks(ix)
	// holds looks p up without marking its ε used.
	holds := func(eps float64, mp int) bool {
		e := lib.byEps[eps]
		return e != nil && e.link.Serves(dbscan.Params{Eps: eps, MinPts: mp})
	}
	lib.Offer(link(0.5, 8))
	lib.Offer(link(0.5, 4)) // serves less: not kept
	if !holds(0.5, 8) || holds(0.5, 9) {
		t.Fatal("ε 0.5 does not hold its MinPts-8 Link")
	}
	lib.Offer(link(0.5, 16))
	if !holds(0.5, 16) || holds(0.4, 1) {
		t.Fatal("ε 0.5 was not replaced by its MinPts-16 Link")
	}

	// Every point a non-core record of ~n entries: far over the budget.
	huge := link(1e6, ix.Len()+1)
	if huge.Bytes() <= lib.budget {
		t.Fatalf("a %d B Link fits the %d B budget", huge.Bytes(), lib.budget)
	}
	lib.Offer(huge)
	if holds(1e6, 1) || lib.Bytes() > lib.budget {
		t.Fatalf("an over-budget Link was kept (%d B of %d)", lib.Bytes(), lib.budget)
	}

	// Fill past the budget with MinPts-8 heads, touching the first ε after
	// every offer: the eviction must spare it.
	epsAt := func(i int) float64 { return 0.3 + 0.01*float64(i) }
	lib = NewLinks(ix)
	for i := 0; ; i++ {
		if i == 200 {
			t.Fatal("200 Links fit the budget: no eviction exercised")
		}
		lib.Offer(link(epsAt(i), 8))
		if !holds(epsAt(i), 8) || lib.Bytes() > lib.budget {
			t.Fatalf("offer %d: not kept, or %d B over the %d B budget", i, lib.Bytes(), lib.budget)
		}
		if lib.Serving(dbscan.Params{Eps: epsAt(0), MinPts: 8}) == nil {
			t.Fatalf("the most recently used ε was evicted after %d offers", i+1)
		}
		if i > 1 && !holds(epsAt(1), 8) {
			break // the least recently used ε went first
		}
	}
}
