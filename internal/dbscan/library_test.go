package dbscan_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/sched"
	"vdbscan/internal/variant"
)

// TestLinksLibraryLinkNeverMutated: a Link a sched.Links library holds is
// read by every run it serves, so no run may change it — not the chain that
// offered it either. From one library head, two sched.Execute runs of the head's whole chain — what
// ClusterVariants runs — go concurrently at 1 and 3 threads, beside a third
// canceled at every point of its chain in turn, and a dbscan.Link.Advance
// canceled halfway is offered to a library. Afterwards the head's core
// flags, union-find parents and Bytes must be as they were and it must
// still be the library's entry; the half-advanced Link must serve nothing
// and be refused; and a run the head serves — what Cluster runs with the
// library — must still give Run's bytes. Run it under -race.
func TestLinksLibraryLinkNeverMutated(t *testing.T) {
	ix := dbscan.BuildIndex(dbscan.Blobs(5, 300, 200, 25, 0.6, 217), dbscan.IndexOptions{Kind: dbscan.IndexGrid})
	var ps []dbscan.Params
	// want is in the index's sorted order, where RunLink labels; callerWant
	// in the caller's, where sched does.
	var want, callerWant [][]int32
	for _, mp := range []int{40, 32, 17, 9, 3, 1} {
		p := dbscan.Params{Eps: 0.8, MinPts: mp}
		res, err := dbscan.Run(ix, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps, want, callerWant = append(ps, p), append(want, res.Labels), append(callerWant, res.Remap(ix.Fwd).Labels)
	}
	check := func(rr *sched.RunResult) error {
		for _, r := range rr.Results {
			if !slices.Equal(r.Result.Labels, callerWant[r.Variant.ID]) {
				return fmt.Errorf("variant %v: labels differ from Run", r.Variant)
			}
		}
		return nil
	}
	// The library's head is offered by a chain that goes on past it: its
	// next link must clone it, so it must read as a head run alone does.
	lib := sched.NewLinks(ix)
	if _, err := sched.Execute(ix, variant.New(ps), sched.Options{Threads: 1, Links: lib}); err != nil {
		t.Fatal(err)
	}
	head := lib.Serving(ps[0])
	if head == nil {
		t.Fatal("the library kept no head")
	}
	ctx, opt := context.Background(), dbscan.ParallelOptions{Workers: 1}
	_, alone, err := dbscan.RunLink(ctx, ix, ps[0], nil, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	core, parents := dbscan.LinkState(head)
	if c, p := dbscan.LinkState(alone); head.Params() != ps[0] || !slices.Equal(c, core) || !slices.Equal(p, parents) {
		t.Fatalf("the library's head reads %v, not the head run alone", head.Params())
	}
	bytes := head.Bytes()

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, threads := range []int{1, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr, err := sched.Execute(ix, variant.New(ps), sched.Options{Threads: threads, Links: lib})
			if err == nil {
				err = check(rr)
			}
			errs[i] = err
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := int64(1); n <= 40 && errs[2] == nil; n++ {
			if rr, err := sched.ExecuteContext(dbscan.CountdownCtx(n), ix, variant.New(ps), sched.Options{Threads: 2, Links: lib}); err == nil {
				errs[2] = check(rr)
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	_, own, err := dbscan.RunLink(ctx, ix, ps[1], head, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One worker, one arena of records: the second Err call comes after the
	// pass has turned every point of the window core.
	if _, err := own.Advance(dbscan.CountdownCtx(2), ps[2], opt, nil); err == nil {
		t.Fatal("a canceled Advance returned no error")
	}
	if own.Serves(ps[len(ps)-1]) {
		t.Fatal("a half-advanced Link serves a run")
	}
	fresh := sched.NewLinks(ix)
	if fresh.Offer(own); fresh.Bytes() != 0 {
		t.Fatal("a library kept a half-advanced Link")
	}

	if lib.Serving(ps[0]) != head || head.Bytes() != bytes || lib.Bytes() != bytes {
		t.Fatalf("the library's entry changed: %d bytes, %d before", lib.Bytes(), bytes)
	}
	if c, p := dbscan.LinkState(head); !slices.Equal(c, core) || !slices.Equal(p, parents) {
		t.Fatal("the library's Link changed its flags or parents")
	}
	for i, p := range ps {
		res, _, err := dbscan.RunLink(ctx, ix, p, lib.Serving(p), opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Labels, want[i]) {
			t.Fatalf("%v: a run the library serves differs from Run", p)
		}
	}
}
