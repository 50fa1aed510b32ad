package vdbscan

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// linksFixture is an index with every test variant's Index.Cluster labels,
// the reference a library-served run must reproduce byte for byte.
type linksFixture struct {
	idx    *Index
	params []Params
	want   map[Params]*Clustering
}

func newLinksFixture(t *testing.T, n int, eps []float64, minpts []int) linksFixture {
	t.Helper()
	f := linksFixture{idx: NewIndex(testPoints(t, n)), params: CartesianVariants(eps, minpts), want: map[Params]*Clustering{}}
	for _, p := range f.params {
		res, err := f.idx.Cluster(p)
		if err != nil {
			t.Fatal(err)
		}
		f.want[p] = res
	}
	return f
}

func (f linksFixture) check(t *testing.T, tag string, p Params, got *Clustering) {
	t.Helper()
	want := f.want[p]
	if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s %v: labels differ from Index.Cluster", tag, p)
	}
}

// TestLinksAcrossCalls drives one library through five calls — sweeps in
// shuffled variant orders and single Clusters, at 1, 2 and 4 threads.
// Every variant must be byte-identical to Index.Cluster; a head the
// library serves must be a replay at zero ε-searches, and once every ε's
// largest MinPts has run, a whole sweep must search nothing.
func TestLinksAcrossCalls(t *testing.T) {
	f := newLinksFixture(t, 4000, []float64{1.5, 2.5, 4}, []int{16, 8, 4, 2})
	for _, threads := range []int{1, 2, 4} {
		tag := fmt.Sprintf("T=%d", threads)
		lib := f.idx.NewLinks()
		rng := rand.New(rand.NewSource(int64(threads)))
		sweep := func(minpts ...int) (*VariantRun, Work) {
			t.Helper()
			var ps []Params
			for _, p := range f.params {
				if slices.Contains(minpts, p.MinPts) {
					ps = append(ps, p)
				}
			}
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			var w Work
			run, err := f.idx.ClusterVariants(ps, WithThreads(threads), WithLinks(lib), WithWork(&w))
			if err != nil {
				t.Fatal(err)
			}
			for _, vr := range run.Results {
				f.check(t, tag, vr.Params, vr.Clustering)
			}
			return run, w
		}
		single := func(p Params, served bool) {
			t.Helper()
			var w Work
			got, err := f.idx.Cluster(p, WithThreads(threads), WithLinks(lib), WithWork(&w))
			if err != nil {
				t.Fatal(err)
			}
			f.check(t, tag, p, got)
			if served != (w.NeighborSearches == 0) {
				t.Fatalf("%s Cluster(%v): %d ε-searches, served %v", tag, p, w.NeighborSearches, served)
			}
		}

		run, _ := sweep(8, 4)
		for _, vr := range run.Results {
			if vr.FromScratch != (vr.Params.MinPts == 8) {
				t.Fatalf("%s first sweep %v: FromScratch %v", tag, vr.Params, vr.FromScratch)
			}
		}
		single(Params{Eps: 2.5, MinPts: 2}, true)
		single(Params{Eps: 2.5, MinPts: 16}, false) // a miss: kept over MinPts 8
		run, _ = sweep(16, 8, 4, 2)
		for _, vr := range run.Results {
			if vr.FromScratch != (vr.Params.MinPts == 16 && vr.Params.Eps != 2.5) {
				t.Fatalf("%s third sweep %v: FromScratch %v", tag, vr.Params, vr.FromScratch)
			}
		}
		run, w := sweep(16, 8, 4, 2)
		for _, vr := range run.Results {
			head := vr.Params.MinPts == 16
			if vr.FromScratch || vr.FractionReused != 1 || head != (vr.SourceIndex < 0) {
				t.Fatalf("%s served sweep %v: FromScratch %v reuse %g source %d",
					tag, vr.Params, vr.FromScratch, vr.FractionReused, vr.SourceIndex)
			}
		}
		if w.NeighborSearches != 0 {
			t.Fatalf("%s: a fully served sweep did %d ε-searches", tag, w.NeighborSearches)
		}
		single(Params{Eps: 4, MinPts: 16}, true)
	}
}

// TestLinksBudget: a library never holds more than LinkBytesPerPoint bytes
// per point, and what it evicts only turns replays back into runs from
// scratch — the labels stay Index.Cluster's.
func TestLinksBudget(t *testing.T) {
	var eps []float64
	for e := 1.0; e < 6; e += 0.25 {
		eps = append(eps, e)
	}
	f := newLinksFixture(t, 3000, eps, []int{48, 4})
	lib := f.idx.NewLinks()
	budget := int64(LinkBytesPerPoint * f.idx.Len())
	for round := 0; round < 2; round++ {
		for _, e := range eps {
			for _, mp := range []int{48, 4} {
				p := Params{Eps: e, MinPts: mp}
				got, err := f.idx.Cluster(p, WithLinks(lib))
				if err != nil {
					t.Fatal(err)
				}
				f.check(t, fmt.Sprintf("round %d", round), p, got)
				if !lib.Serves(p) || lib.Bytes() > budget {
					t.Fatalf("%v: not kept, or %d B over the %d B budget", p, lib.Bytes(), budget)
				}
			}
		}
	}
	if lib.Serves(Params{Eps: eps[0], MinPts: 4}) {
		t.Fatal("every ε still served: no eviction exercised")
	}
	run, err := f.idx.ClusterVariants(f.params, WithLinks(lib), WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, vr := range run.Results {
		f.check(t, "after eviction", vr.Params, vr.Clustering)
	}
}

// TestLinksForeignIndex: a library made by another Index is refused with
// ErrForeignLinks, by Cluster and ClusterVariants alike.
func TestLinksForeignIndex(t *testing.T) {
	pts := testPoints(t, 500)
	a, b := NewIndex(pts), NewIndex(pts)
	p := Params{Eps: 3, MinPts: 4}
	_, err1 := b.Cluster(p, WithLinks(a.NewLinks()))
	_, err2 := b.ClusterVariants([]Params{p}, WithLinks(a.NewLinks()))
	for _, err := range []error{err1, err2} {
		if !errors.Is(err, ErrForeignLinks) || !strings.HasPrefix(err.Error(), "vdbscan: ") {
			t.Fatalf("err = %v, want a vdbscan: ErrForeignLinks", err)
		}
	}
}

// TestLinksConcurrentRuns: runs on many goroutines share one library —
// sweeps and single variants, misses offering while others replay. Run it
// under -race.
func TestLinksConcurrentRuns(t *testing.T) {
	f := newLinksFixture(t, 3000, []float64{2, 3, 4}, []int{12, 6, 3})
	lib := f.idx.NewLinks()
	var wg sync.WaitGroup
	errs := make(chan error, 8*3*4) // at most one per goroutine, round and variant
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 3; round++ {
				ps := slices.Clone(f.params)
				rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
				got := map[Params]*Clustering{}
				if g%2 == 0 {
					run, err := f.idx.ClusterVariants(ps[:4], WithLinks(lib), WithThreads(2))
					if err != nil {
						errs <- err
						return
					}
					for _, vr := range run.Results {
						got[vr.Params] = vr.Clustering
					}
				} else {
					c, err := f.idx.Cluster(ps[0], WithLinks(lib))
					if err != nil {
						errs <- err
						return
					}
					got[ps[0]] = c
				}
				for p, c := range got {
					if c.NumClusters != f.want[p].NumClusters || !slices.Equal(c.Labels, f.want[p].Labels) {
						errs <- fmt.Errorf("goroutine %d %v: labels differ from Index.Cluster", g, p)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLinksTraced: a library replay is reported as one — in the progress
// event, the timeline and the Chrome trace — not as a run from scratch.
func TestLinksTraced(t *testing.T) {
	idx := NewIndex(testPoints(t, 1000))
	lib := idx.NewLinks()
	p := Params{Eps: 3, MinPts: 4}
	if _, err := idx.Cluster(p, WithLinks(lib)); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	var ev ProgressEvent
	if _, err := idx.Cluster(p, WithLinks(lib), WithTracer(tr), WithProgress(func(e ProgressEvent) { ev = e })); err != nil {
		t.Fatal(err)
	}
	var text, chrome bytes.Buffer
	if err := tr.WriteTimeline(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if ev.FromScratch || ev.FractionReused != 1 || ev.Source != -1 {
		t.Errorf("progress event %+v, want a replay with no source", ev)
	}
	if !strings.Contains(text.String(), " library ") || strings.Contains(text.String(), "from-scratch") {
		t.Errorf("timeline does not name the library:\n%s", text.String())
	}
	if !strings.Contains(chrome.String(), `"from_scratch":false`) {
		t.Error("chrome trace reports the replay as from scratch")
	}
}
