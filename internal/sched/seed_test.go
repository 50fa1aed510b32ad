package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/variant"
)

// bruteCore returns which of ix's points have at least minPts points,
// themselves included, within eps: a sweep over the points sorted by x.
func bruteCore(ix *dbscan.Index, eps float64, minPts int) []bool {
	n := ix.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ix.X[order[a]] < ix.X[order[b]] })
	core := make([]bool, n)
	for a, i := range order {
		k := 0
		for _, dir := range []int{-1, 1} {
			for b := a + min(dir, 0); b >= 0 && b < n; b += dir {
				j := order[b]
				dx := ix.X[j] - ix.X[i]
				if math.Abs(dx) > eps {
					break
				}
				if dy := ix.Y[j] - ix.Y[i]; dx*dx+dy*dy <= eps*eps {
					k++
				}
			}
		}
		core[i] = k >= minPts
	}
	return core
}

// countedPoints returns the points of the cells with fewer than p.MinPts
// points in the cell decomposition a cell-major run of p walks (cells of
// side just under ε/√2), or none when the decomposition is too coarse for a
// cell-major run.
func countedPoints(t *testing.T, ix *dbscan.Index, p dbscan.Params) []int32 {
	t.Helper()
	g, err := gridindex.Freeze(ix.X, ix.Y, p.Eps/math.Sqrt2*(1-1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if g.Side()*math.Sqrt2 > p.Eps {
		return nil
	}
	var out []int32
	cols, rows := g.Shape()
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			if lo, hi := g.CellRange(r, c, c+1); int(hi-lo) < p.MinPts {
				for s := lo; s < hi; s++ {
					out = append(out, g.SlotID(s))
				}
			}
		}
	}
	return out
}

// wantSources returns, for each head of vs (the first of each ε in the
// canonical order), the head whose core set should seed it, or -1: the
// latest earlier head whose MinPts is no smaller.
func wantSources(vs []variant.Variant) map[int]int {
	var heads []variant.Variant
	for _, v := range variant.Sorted(vs) {
		if len(heads) == 0 || heads[len(heads)-1].Params.Eps != v.Params.Eps {
			heads = append(heads, v)
		}
	}
	out := map[int]int{}
	for k, h := range heads {
		out[h.ID] = -1
		for j := k - 1; j >= 0; j-- {
			if heads[j].Params.MinPts >= h.Params.MinPts {
				out[h.ID] = heads[j].ID
				break
			}
		}
	}
	return out
}

// TestSeededHeadsMatchRun runs Cartesian variant sets, where every head but
// the first takes the core set of the head before it, and sets where no
// seed or only an older one applies, at pool widths 1, 2, 3 and 8, traced
// and untraced, on an input too small to tile and one that tiles above one
// worker. Every variant must be Run's bytes and the counters the same at
// every width. A seeded head must run its unseeded searches less one per
// seeded point of a counted cell, counted by brute force, and bill those
// points as reused; it stays a from-scratch run with no source variant.
func TestSeededHeadsMatchRun(t *testing.T) {
	inputs := []struct {
		name string
		ix   *dbscan.Index
	}{
		{"untiled", testGridIndex()},
		{"tiled", dbscan.BuildIndex(blobs(4, 4000, 1500, 40, 1.0, 7), dbscan.IndexOptions{})},
	}
	sets := []struct {
		name string
		vs   []variant.Variant
	}{
		{"cartesian", variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})},
		{"cartesian-wide", variant.Product([]float64{0.2, 0.35, 0.6, 1.0}, []int{5, 12, 24})},
		{"minpts-grows", variant.New([]dbscan.Params{{Eps: 0.3, MinPts: 4}, {Eps: 0.5, MinPts: 8}, {Eps: 0.8, MinPts: 16}, {Eps: 0.8, MinPts: 6}})},
		{"older-source", variant.New([]dbscan.Params{{Eps: 0.3, MinPts: 16}, {Eps: 0.5, MinPts: 4}, {Eps: 0.8, MinPts: 8}})},
	}
	for _, in := range inputs {
		for _, set := range sets {
			t.Run(in.name+"/"+set.name, func(t *testing.T) {
				seeded := seededHeadsMatchRun(t, in.ix, set.vs)
				if noSeed := set.name == "minpts-grows"; (seeded == 0) != noSeed {
					t.Fatalf("%d points seeded", seeded)
				}
			})
		}
	}
}

// seededHeadsMatchRun runs vs at every width, traced and untraced, and
// returns the number of points the seeds settled.
func seededHeadsMatchRun(t *testing.T, ix *dbscan.Index, vs []variant.Variant) int64 {
	want := make([]*cluster.Result, len(vs))
	for _, v := range vs {
		res, err := dbscan.Run(ix, v.Params, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[v.ID] = res.Remap(ix.Fwd)
	}
	sources := wantSources(vs)
	// What each head bills run alone, and the seeded points it should skip.
	unseeded := map[int]metrics.Snapshot{}
	skipped := map[int]int64{}
	for id, src := range sources {
		var m metrics.Counters
		if _, _, err := dbscan.RunLink(context.Background(), ix, vs[id].Params, nil, dbscan.ParallelOptions{Workers: 1}, &m); err != nil {
			t.Fatal(err)
		}
		unseeded[id] = m.Snapshot()
		if src < 0 {
			continue
		}
		seed := bruteCore(ix, vs[src].Params.Eps, vs[src].Params.MinPts)
		for _, i := range countedPoints(t, ix, vs[id].Params) {
			if seed[i] {
				skipped[id]++
			}
		}
	}

	var reused int64
	for _, n := range skipped {
		reused += n
	}
	var first *metrics.Snapshot
	for _, threads := range []int{1, 2, 3, 8} {
		for _, traced := range []bool{false, true} {
			var m metrics.Counters
			opt := Options{Threads: threads, Metrics: &m}
			if traced {
				opt.Tracer = obs.NewTracer()
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			rr, err := ExecuteContext(ctx, ix, vs, opt)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("T=%d traced=%v", threads, traced)
			for id, r := range rr.Results {
				if r.Result.NumClusters != want[id].NumClusters || !slices.Equal(r.Result.Labels, want[id].Labels) {
					t.Fatalf("%s %v: labels differ from Run", at, r.Variant.Params)
				}
				if _, head := sources[id]; head && (!r.FromScratch || r.SourceID != -1 || r.FractionReused != 0) {
					t.Fatalf("%s head %v: from scratch %v, source %d, reused %v; want true, -1, 0",
						at, r.Variant.Params, r.FromScratch, r.SourceID, r.FractionReused)
				}
			}
			total := m.Snapshot()
			if first == nil {
				first = &total
			} else if total != *first {
				t.Fatalf("%s: counters %+v, at T=1 untraced %+v", at, total, *first)
			}
			if total.PointsReused != reused {
				t.Fatalf("%s: %d points reused, brute force says %d", at, total.PointsReused, reused)
			}
			if traced {
				checkSeededTrace(t, at, opt.Tracer, vs, sources, unseeded, skipped)
			}
		}
	}
	return reused
}

// checkSeededTrace checks each head's own work and seed event in a traced
// run.
func checkSeededTrace(t *testing.T, at string, tr *obs.Tracer, vs []variant.Variant, sources map[int]int, unseeded map[int]metrics.Snapshot, skipped map[int]int64) {
	t.Helper()
	seeded := map[int][]obs.Event{}
	for _, e := range tr.Events() {
		id := int(e.Variant)
		switch e.Kind {
		case obs.KindSeeded:
			seeded[id] = append(seeded[id], e)
		case obs.KindDone:
			if _, head := sources[id]; !head {
				continue
			}
			if want := unseeded[id].NeighborSearches - skipped[id]; e.Work.NeighborSearches != want {
				t.Fatalf("%s head %v: %d searches, want %d unseeded less %d seeded",
					at, vs[id].Params, e.Work.NeighborSearches, unseeded[id].NeighborSearches, skipped[id])
			}
			if e.Work.PointsReused != skipped[id] {
				t.Fatalf("%s head %v: %d points reused, want %d", at, vs[id].Params, e.Work.PointsReused, skipped[id])
			}
		}
	}
	for id, src := range sources {
		evs := seeded[id]
		if src < 0 || skipped[id] == 0 {
			if len(evs) != 0 {
				t.Fatalf("%s head %v: seed events %+v for no seeded point", at, vs[id].Params, evs)
			}
			continue
		}
		if len(evs) != 1 || evs[0].Arg != int64(src) || evs[0].F != float64(skipped[id]) {
			t.Fatalf("%s head %v: seed events %+v, want one from v%d of %d points", at, vs[id].Params, evs, src, skipped[id])
		}
	}
}

// wrapRunLink makes runLink call body before each chain head, with the
// run's context and the head's parameters, and returns what restores it.
func wrapRunLink(body func(ctx context.Context, p dbscan.Params) error) func() {
	orig := runLink
	runLink = func(ctx context.Context, ix *dbscan.Index, p dbscan.Params, prev *dbscan.Link, opt dbscan.ParallelOptions, m *metrics.Counters) (*cluster.Result, *dbscan.Link, error) {
		if err := body(ctx, p); err != nil {
			return nil, nil, err
		}
		return orig(ctx, ix, p, prev, opt, m)
	}
	return func() { runLink = orig }
}

// TestSeededHeadWaitUnblocks cancels a 3×3 sweep at Threads 2 after every
// link and inside every head, and makes each head that seeds another fail:
// a head waiting for a seed must unblock, and no goroutine may be left.
func TestSeededHeadWaitUnblocks(t *testing.T) {
	ix := testGridIndex()
	vs := variant.Product([]float64{0.3, 0.5, 0.8}, []int{4, 8, 16})
	before := runtime.NumGoroutine()
	run := func(ctx context.Context, opt Options) error {
		opt.Threads = 2
		done := make(chan error, 1)
		go func() {
			_, err := ExecuteContext(ctx, ix, vs, opt)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Minute):
			t.Fatal("sweep still running after a minute")
			return nil
		}
	}
	for c := 1; c < len(vs); c++ {
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int64
		err := run(ctx, Options{Progress: func(obs.ProgressEvent) {
			if done.Add(1) == int64(c) {
				cancel()
			}
		}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled after link %d: err = %v", c, err)
		}
	}
	for _, eps := range []float64{0.3, 0.5, 0.8} {
		// The head of ε sleeps, so the next head is waiting for its seed,
		// then cancels.
		ctx, cancel := context.WithCancel(context.Background())
		restore := wrapRunLink(func(_ context.Context, p dbscan.Params) error {
			if p.Eps == eps {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}
			return nil
		})
		err := run(ctx, Options{})
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled in the head of ε %v: err = %v", eps, err)
		}
	}
	for _, eps := range []float64{0.3, 0.5} {
		injected := errors.New("injected")
		restore := wrapRunLink(func(_ context.Context, p dbscan.Params) error {
			if p.Eps == eps {
				time.Sleep(20 * time.Millisecond)
				return injected
			}
			return nil
		})
		err := run(context.Background(), Options{})
		restore()
		if !errors.Is(err, injected) || !strings.Contains(err.Error(), fmt.Sprint(eps)) {
			t.Fatalf("head of ε %v failed: err = %v", eps, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines left over, %d before", n, before)
	}
}

// TestFailedHeadStopsSweep makes the first of six chain heads fail once
// every other worker's head is in flight, at Threads 2 and 3: the
// failure must be the error returned, and no head may start after the
// failing head returns.
func TestFailedHeadStopsSweep(t *testing.T) {
	ix := testGridIndex()
	vs := variant.Product([]float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, []int{4, 8})
	for _, threads := range []int{2, 3} {
		injected := errors.New("injected")
		failed, inFlight := make(chan struct{}), make(chan struct{}, threads)
		var started, late atomic.Int64
		restore := wrapRunLink(func(ctx context.Context, p dbscan.Params) error {
			select {
			case <-failed:
				late.Add(1)
			default:
			}
			started.Add(1)
			if p.Eps == 0.3 {
				for i := 1; i < threads; i++ {
					<-inFlight
				}
				close(failed)
				return injected
			}
			// Stay in flight until the failure, then give the run a
			// while to stop before this worker asks for the next head.
			select {
			case inFlight <- struct{}{}:
			default: // a head started after the failure; late counts it
			}
			<-failed
			select {
			case <-ctx.Done():
			case <-time.After(2 * time.Second):
			}
			return nil
		})
		_, err := ExecuteContext(context.Background(), ix, vs, Options{Threads: threads})
		restore()
		if !errors.Is(err, injected) || !strings.Contains(err.Error(), "0.3") {
			t.Fatalf("threads %d: err = %v, want the failing head's", threads, err)
		}
		if n := late.Load(); n > 0 {
			t.Errorf("threads %d: %d heads started after the failing head returned", threads, n)
		}
		if n := started.Load(); n > int64(threads) {
			t.Errorf("threads %d: %d heads started, want at most %d", threads, n, threads)
		}
	}
}
