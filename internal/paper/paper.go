// Package paper is the reproduction of the paper's VariantDBSCAN as it was
// published: cluster reuse (Alg. 3/4, core.go) under the seed-cluster
// prioritization schemes (§IV-C, reuse.go), scheduled by the paper's two
// online heuristics (§IV-D) on a pool of T goroutines that records when and
// where every variant ran (Fig. 9). The figure harness (internal/bench) is
// its only non-test importer; the product runs ε-chains (internal/sched),
// whose labels are DBSCAN's bytes.
//
//	SCHEDGREEDY — workers take variants in canonical order (ε ascending,
//	  minpts descending) and reuse the *completed* variant with the smallest
//	  normalized parameter difference; if none qualifies, the variant is
//	  clustered from scratch.
//	SCHEDMINPTS — the variants with the maximum minpts for each unique ε are
//	  queued first (clustered from scratch), maximizing the diversity of
//	  completed ε values so later variants more likely find a close source;
//	  the remainder then follows the SCHEDGREEDY criterion.
//
// The scheduling problem is online: which sources exist when a variant
// starts depends on the order and speed of earlier completions, so above
// one thread the labels depend on the schedule. Every valid source agrees
// on the cluster count and the noise set; numbering and border attachment
// may differ.
package paper

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/forkjoin"
	"vdbscan/internal/metrics"
	"vdbscan/internal/variant"
)

// Strategy selects the scheduling heuristic.
type Strategy int

const (
	// SchedGreedy assigns variants in canonical order, reusing the closest
	// completed variant.
	SchedGreedy Strategy = iota
	// SchedMinPts first clusters, from scratch, the max-minpts variant of
	// each unique ε, then proceeds greedily.
	SchedMinPts
)

// Strategies lists the paper's two heuristics for sweeps.
var Strategies = []Strategy{SchedGreedy, SchedMinPts}

// String implements fmt.Stringer with the paper's names.
func (s Strategy) String() string {
	switch s {
	case SchedGreedy:
		return "SCHEDGREEDY"
	case SchedMinPts:
		return "SCHEDMINPTS"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures Execute.
type Options struct {
	// Threads is the worker pool size T; 1 when zero or negative. The pool
	// starts no more workers than there are variants.
	Threads int
	// Strategy is the scheduling heuristic; SchedGreedy by default.
	Strategy Strategy
	// Scheme is the seed-cluster prioritization (ClusDefault when zero;
	// the paper recommends ClusDensity).
	Scheme Scheme
	// DisableReuse clusters every variant from scratch (scenario S1's
	// no-reuse baseline).
	DisableReuse bool
	// Metrics optionally accumulates work counters across all variants.
	Metrics *metrics.Counters
}

// VariantResult is the outcome of one variant execution.
type VariantResult struct {
	Variant variant.Variant
	// Result holds labels in the index's sorted point space.
	Result *cluster.Result
	// Stats reports the reuse achieved.
	Stats Stats
	// SourceID is the original ID of the reused variant, or -1 for a
	// from-scratch execution.
	SourceID int
	// Worker is the pool worker (0..T-1) that ran the variant.
	Worker int
	// Start and End are offsets from the instant Execute began, measured
	// on Go's monotonic clock, so spans of different workers order
	// correctly.
	Start, End time.Duration
}

// Duration returns the variant's response time.
func (vr VariantResult) Duration() time.Duration { return vr.End - vr.Start }

// RunResult is the outcome of executing a whole variant set.
type RunResult struct {
	// Results is indexed by the variants' original IDs.
	Results []VariantResult
	// Makespan is the wall-clock time from first start to last finish.
	Makespan time.Duration
	// TotalWork is the sum of per-variant durations; TotalWork/T is the
	// Figure 9 lower bound ("no cores idle").
	TotalWork time.Duration
	// Threads echoes T.
	Threads int
}

// LowerBound returns the idealized makespan if all T workers finished
// simultaneously (Figure 9's black line).
func (rr *RunResult) LowerBound() time.Duration {
	if rr.Threads <= 0 {
		return rr.TotalWork
	}
	return rr.TotalWork / time.Duration(rr.Threads)
}

// SlowdownOverLowerBound returns Makespan/LowerBound − 1 (the paper reports
// 13.5% for SCHEDGREEDY and 33.0% for SCHEDMINPTS in its Figure 9 scenario).
func (rr *RunResult) SlowdownOverLowerBound() float64 {
	lb := rr.LowerBound()
	if lb <= 0 {
		return 0
	}
	return float64(rr.Makespan)/float64(lb) - 1
}

// FractionFromScratch returns the fraction of variants clustered without
// reuse. Its floor is (|V|−f·|V|)/|V| with f = (|V|−T)/|V| (paper §IV-D).
func (rr *RunResult) FractionFromScratch() float64 {
	if len(rr.Results) == 0 {
		return 0
	}
	n := 0
	for _, r := range rr.Results {
		if r.Stats.FromScratch {
			n++
		}
	}
	return float64(n) / float64(len(rr.Results))
}

// MeanFractionReused averages the per-variant fraction of points reused
// (Figure 7b's quantity).
func (rr *RunResult) MeanFractionReused() float64 {
	if len(rr.Results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rr.Results {
		sum += r.Stats.FractionReused
	}
	return sum / float64(len(rr.Results))
}

// WorkerTimelines groups results by worker in start order — the raw
// material of the Figure 9 makespan bars.
func (rr *RunResult) WorkerTimelines() [][]VariantResult {
	lines := make([][]VariantResult, rr.Threads)
	for _, r := range rr.Results {
		lines[r.Worker] = append(lines[r.Worker], r)
	}
	for _, line := range lines {
		sort.Slice(line, func(a, b int) bool { return line[a].Start < line[b].Start })
	}
	return lines
}

// completedEntry is a published, immutable variant result workers may reuse.
type completedEntry struct {
	params dbscan.Params
	id     int
	result *cluster.Result
}

// registry tracks completed variants under a mutex. Results are made
// read-safe (cluster grouping precomputed) before publication.
type registry struct {
	mu        sync.Mutex
	completed []completedEntry
}

func (g *registry) publish(e completedEntry) {
	// Precompute the lazy cluster grouping so concurrent readers never
	// race on the cache inside cluster.Result.
	e.result.Clusters()
	g.mu.Lock()
	g.completed = append(g.completed, e)
	g.mu.Unlock()
}

// choose returns the closest reusable completed entry for p, or nil.
func (g *registry) choose(p dbscan.Params, norm variant.Normalizer) *completedEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	params := make([]dbscan.Params, len(g.completed))
	for i, e := range g.completed {
		params[i] = e.params
	}
	idx := ChooseSource(p, params, norm)
	if idx < 0 {
		return nil
	}
	e := g.completed[idx]
	return &e
}

// order builds the execution queue for the chosen strategy over a canonical
// sort of vs. It returns the variants in assignment order.
func order(vs []variant.Variant, strategy Strategy) []variant.Variant {
	sorted := variant.Sorted(vs)
	if strategy == SchedGreedy {
		return sorted
	}
	// SCHEDMINPTS: for each unique ε, pull the variant with the maximum
	// minpts to the front (in ascending ε order); keep the rest canonical.
	bestForEps := map[float64]int{} // index into sorted
	for i, v := range sorted {
		if j, ok := bestForEps[v.Params.Eps]; !ok || v.Params.MinPts > sorted[j].Params.MinPts {
			bestForEps[v.Params.Eps] = i
		}
	}
	prioritized := make([]bool, len(sorted))
	var heads []int
	for _, i := range bestForEps {
		prioritized[i] = true
		heads = append(heads, i)
	}
	sort.Ints(heads)
	out := make([]variant.Variant, 0, len(sorted))
	for _, i := range heads {
		out = append(out, sorted[i])
	}
	for i, v := range sorted {
		if !prioritized[i] {
			out = append(out, v)
		}
	}
	return out
}

// Execute runs every variant in vs over the shared index on Threads
// workers and returns the per-variant results (indexed by original ID).
func Execute(ix *dbscan.Index, vs []variant.Variant, opt Options) (*RunResult, error) {
	if err := variant.Validate(vs); err != nil {
		return nil, err
	}
	// One build sized for the variant set's max ε serves every variant (a
	// no-op on the R-tree kind).
	maxEps := 0.0
	for _, v := range vs {
		maxEps = max(maxEps, v.Params.Eps)
	}
	if err := ix.EnsureGrid(maxEps); err != nil {
		return nil, err
	}
	threads := max(opt.Threads, 1)
	queue := order(vs, opt.Strategy)
	// scratchOnly marks the SCHEDMINPTS priority head, a prefix of the
	// queue: those variants are clustered from scratch by construction.
	scratchOnly := map[int]bool{}
	if opt.Strategy == SchedMinPts {
		seen := map[float64]bool{}
		for _, v := range queue {
			if seen[v.Params.Eps] {
				break
			}
			seen[v.Params.Eps] = true
			scratchOnly[v.ID] = true
		}
	}
	norm := variant.NewNormalizer(vs)
	reg := &registry{}
	results := make([]VariantResult, len(vs))
	var next int
	var nextMu sync.Mutex
	take := func() (variant.Variant, bool) {
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= len(queue) {
			return variant.Variant{}, false
		}
		next++
		return queue[next-1], true
	}

	start := time.Now()
	run := func(worker int, v variant.Variant) error {
		vr := VariantResult{Variant: v, Worker: worker, SourceID: -1, Start: time.Since(start)}
		var prev *cluster.Result
		if !opt.DisableReuse && !scratchOnly[v.ID] {
			if e := reg.choose(v.Params, norm); e != nil {
				prev, vr.SourceID = e.result, e.id
			}
		}
		res, stats, err := Run(ix, v.Params, prev, opt.Scheme, opt.Metrics)
		if err != nil {
			return fmt.Errorf("variant %v: %w", v, err)
		}
		if stats.FromScratch {
			vr.SourceID = -1
		}
		vr.Result, vr.Stats, vr.End = res, stats, time.Since(start)
		reg.publish(completedEntry{params: v.Params, id: v.ID, result: res})
		results[v.ID] = vr
		return nil
	}

	errs := make([]error, min(threads, len(vs)))
	forkjoin.Do(len(errs), func(w int) {
		for errs[w] == nil {
			v, ok := take()
			if !ok {
				return
			}
			errs[w] = run(w, v)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rr := &RunResult{Results: results, Threads: threads, Makespan: time.Since(start)}
	for _, r := range results {
		rr.TotalWork += r.Duration()
	}
	return rr, nil
}
