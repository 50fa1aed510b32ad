// Package forkjoin is the one fork-join helper: it runs a body on several
// goroutines and waits for them all. The parallel bin sort (internal/grid)
// and the grid freeze (internal/gridindex) split their input into
// contiguous ranges, one per worker, so that merging per-worker results in
// worker order reproduces the sequential pass exactly; the passes of a
// parallel DBSCAN run (internal/dbscan) and the variant pools
// (internal/sched, internal/paper) start their workers with Do and let
// them claim work from a shared cursor.
package forkjoin

import (
	"runtime"
	"sync"
)

// grain is the fewest items a worker is given: below it the goroutine
// hand-off costs more than the worker's share of the pass.
const grain = 1 << 13

// Width returns the number of workers for a pass over n items:
// GOMAXPROCS, but no more than one per grain items, and at least one.
func Width(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/grain))
}

// Do calls body(k) for every k in [0, w), each on its own goroutine but
// k = 0, which runs on the caller's, and returns once all have returned.
func Do(w int, body func(k int)) {
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			body(k)
		}(k)
	}
	body(0)
	wg.Wait()
}

// Ranges cuts [0, n) into w contiguous ranges of near-equal length and
// calls body(k, lo, hi) for the k-th, [lo, hi), as Do does.
func Ranges(n, w int, body func(k, lo, hi int)) {
	Do(w, func(k int) { body(k, Cut(n, w, k), Cut(n, w, k+1)) })
}

// Cut returns where the k-th of w near-equal ranges over [0, n) starts;
// Cut(n, w, w) is n.
func Cut(n, w, k int) int { return int(int64(n) * int64(k) / int64(w)) }
