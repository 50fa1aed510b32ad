// Package sched executes a set of DBSCAN variants on a pool of worker
// goroutines. By default (SchedEpsChain) the queue unit is an ε-chain
// (dbscan.RunLink): the variants of one ε, minpts descending; the first
// runs from scratch and every later one replays the non-core records its
// predecessor wrote, at zero ε-searches. Every variant then has
// dbscan.Run's bytes and the same work counters at every pool width, on
// either index kind; DisableReuse makes every variant its own chain.
// Without intra-variant workers a chain's first link runs on one goroutine
// and is traced as one scratch phase, like every other sequential run: the
// cell-major dbscan.RunLink on the grid kind, and on the R-tree kind
// dbscan.RunLink at one worker, or dbscan.RunCtx when nothing follows it.
//
// An explicit paper strategy runs Alg. 3/4 cluster reuse (core.RunOpts) on
// either kind, under one of the paper's online heuristics (§IV-D):
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
// starts depends on the order and speed of earlier completions. The paper's
// thread pool maps to T goroutines pulling from a shared queue. Per-variant
// start/end offsets are recorded to reproduce the Figure 9 makespan plots.
//
// Beyond the paper, the pool supports *two-level* scheduling
// (Options.IntraWorkers / Options.DonateIdle): from-scratch variant
// executions can run on the intra-variant parallel path
// (dbscan.RunParallelOpts), and workers left idle once the queue drains —
// the |V| < T and end-of-run-tail regimes, where the paper's scheme parks
// cores — donate themselves to the running variants' worker pools. Results
// are unchanged: the parallel from-scratch path is label-identical to
// sequential DBSCAN.
package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/core"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/reuse"
	"vdbscan/internal/variant"
)

// Strategy selects the scheduling heuristic.
type Strategy int

const (
	// SchedEpsChain, the default, runs each ε's variants as a chain of
	// dbscan.RunLink links; every variant gets dbscan.Run's bytes.
	SchedEpsChain Strategy = iota
	// SchedGreedy assigns variants in canonical order, reusing the closest
	// completed variant.
	SchedGreedy
	// SchedMinPts first clusters, from scratch, the max-minpts variant of
	// each unique ε, then proceeds greedily.
	SchedMinPts
	// SchedTree executes the Figure 3a dependency tree depth-first: each
	// variant prefers to reuse its tree parent (the reusable variant with
	// minimal parameter difference under global knowledge), falling back to
	// the greedy choice when the parent has not completed yet. This static
	// schedule is an extension beyond the paper's two online heuristics.
	SchedTree
)

// Strategies lists the paper's two heuristics for sweeps.
var Strategies = []Strategy{SchedGreedy, SchedMinPts}

// AllStrategies adds the SchedTree extension to the paper's heuristics.
var AllStrategies = []Strategy{SchedGreedy, SchedMinPts, SchedTree}

// String implements fmt.Stringer with the paper's names.
func (s Strategy) String() string {
	switch s {
	case SchedEpsChain:
		return "EPSCHAIN"
	case SchedGreedy:
		return "SCHEDGREEDY"
	case SchedMinPts:
		return "SCHEDMINPTS"
	case SchedTree:
		return "SCHEDTREE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Parse converts a strategy name ("EPSCHAIN"/"chain",
// "SCHEDGREEDY"/"greedy", "SCHEDMINPTS"/"minpts", "SCHEDTREE"/"tree").
func Parse(name string) (Strategy, error) {
	switch name {
	case "EPSCHAIN", "chain":
		return SchedEpsChain, nil
	case "SCHEDGREEDY", "greedy":
		return SchedGreedy, nil
	case "SCHEDMINPTS", "minpts":
		return SchedMinPts, nil
	case "SCHEDTREE", "tree":
		return SchedTree, nil
	}
	return 0, fmt.Errorf("sched: unknown strategy %q", name)
}

// Options configures Execute.
type Options struct {
	// Threads is the worker pool size T; 1 when zero or negative.
	Threads int
	// Strategy is the scheduling heuristic; SchedEpsChain by default.
	Strategy Strategy
	// Scheme is the cluster-reuse prioritization under a paper strategy;
	// reuse.ClusDensity is the paper's recommended default and ours.
	Scheme reuse.Scheme
	// MinSeedSize excludes clusters below this size from reuse under a
	// paper strategy (core.Options.MinSeedSize); 0 reuses all.
	MinSeedSize int
	// DisableReuse forces every variant to cluster from scratch (the
	// multithreaded no-reuse baseline of scenario S1).
	DisableReuse bool
	// IntraWorkers is the per-variant worker count for from-scratch variant
	// executions: when set above 1 (or when DonateIdle is on), every
	// from-scratch DBSCAN uses dbscan.RunParallelOpts instead of the
	// sequential expansion, so a single variant can use several cores.
	// Under a paper strategy, reuse-based executions (EXPANDCLUSTER) are
	// inherently ordered and remain sequential. 0 or 1 keeps from-scratch
	// runs on one worker (paper-faithful) unless DonateIdle lends them more.
	IntraWorkers int
	// DonateIdle enables two-level scheduling: pool workers that find the
	// variant queue empty donate themselves to the parallel pass of
	// still-running variants instead of parking. This removes the idle
	// cores of the |V| < Threads and end-of-run-tail regimes without
	// changing any clustering result (the parallel from-scratch path is
	// label-identical to sequential DBSCAN).
	DonateIdle bool
	// Tiles selects tile-level parallelism for from-scratch executions on
	// grid-kind indexes (dbscan.ParallelOptions.Tiles): 0 is automatic,
	// 1 untiled, >= 2 an explicit tile target. Label-identical to the
	// untiled run; a value above 1 also enables the parallel from-scratch
	// path, like IntraWorkers.
	Tiles int
	// Metrics optionally accumulates work counters across all variants.
	Metrics *metrics.Counters
	// Tracer optionally records the run's execution timeline: variant
	// lifecycle spans, seed-selection decisions, expand/scratch phase
	// boundaries, donor join/leave, and per-variant work deltas. Nil (the
	// default) disables tracing at zero cost — every recording call is a
	// nil-receiver no-op that allocates nothing.
	Tracer *obs.Tracer
	// Progress, when non-nil, is invoked serially after each variant
	// completes with the live run state (variants done, running mean reuse
	// fraction). It is called from worker goroutines — keep it fast.
	Progress func(obs.ProgressEvent)
}

// intraEnabled reports whether from-scratch executions should take the
// parallel path.
func (o Options) intraEnabled() bool { return o.IntraWorkers > 1 || o.DonateIdle || o.Tiles > 1 }

// VariantResult is the outcome of one variant execution.
type VariantResult struct {
	Variant variant.Variant
	// Result holds labels in the index's sorted point space.
	Result *cluster.Result
	// Stats reports the reuse achieved.
	Stats core.Stats
	// SourceID is the original ID of the reused variant — an ε-chain's
	// predecessor, whose searches it inherited (Stats.FractionReused 1) —
	// or -1 for a from-scratch execution.
	SourceID int
	// Worker is the pool worker (0..T-1) that ran the variant.
	Worker int
	// Start and End are offsets from the run's start instant: a single
	// time.Time captured once when Execute begins, measured with
	// time.Since, so every offset is derived from Go's monotonic clock and
	// all workers (and any attached obs.Tracer) share the same basis.
	// Spans therefore order correctly across workers: End ≥ Start ≥ 0 and
	// End ≤ RunResult.Makespan, wall-clock adjustments notwithstanding.
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
	// Threads echoes the pool size used.
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

// byID returns the completed entry for a specific variant ID, or nil.
func (g *registry) byID(id int) *completedEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.completed {
		if g.completed[i].id == id {
			e := g.completed[i]
			return &e
		}
	}
	return nil
}

// choose returns the closest reusable completed entry for p (plus its
// normalized parameter distance, the SCHEDGREEDY score), or nil.
func (g *registry) choose(p dbscan.Params, norm variant.Normalizer) (*completedEntry, float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	params := make([]dbscan.Params, len(g.completed))
	for i, e := range g.completed {
		params[i] = e.params
	}
	idx := core.ChooseSource(p, params, norm)
	if idx < 0 {
		return nil, 0
	}
	e := g.completed[idx]
	return &e, norm.Dist(p, e.params)
}

// units cuts an execution order into queue units: one variant each, or —
// chain set, on the canonical order (ε ascending, minpts descending) — the
// ε-chains: the run of variants sharing one ε, each after the first served
// by its predecessor's dbscan.Link.
func units(ordered []variant.Variant, chain bool) [][]variant.Variant {
	var out [][]variant.Variant
	for _, v := range ordered {
		if last := len(out) - 1; chain && last >= 0 && out[last][0].Params.Eps == v.Params.Eps {
			out[last] = append(out[last], v)
		} else {
			out = append(out, []variant.Variant{v})
		}
	}
	return out
}

// order builds the execution queue for the chosen strategy over a canonical
// sort of vs. It returns the variants in assignment order.
func order(vs []variant.Variant, strategy Strategy) []variant.Variant {
	sorted := variant.Sorted(vs)
	if strategy == SchedGreedy {
		return sorted
	}
	if strategy == SchedTree {
		tree := variant.BuildDepTree(vs)
		out := make([]variant.Variant, 0, len(tree.Variants))
		for _, i := range tree.DepthFirstOrder() {
			out = append(out, tree.Variants[i])
		}
		return out
	}
	// SCHEDMINPTS: for each unique ε, pull the variant with the maximum
	// minpts to the front (in ascending ε order); keep the rest canonical.
	type key struct{ eps float64 }
	bestForEps := map[key]int{} // index into sorted
	for i, v := range sorted {
		k := key{v.Params.Eps}
		if j, ok := bestForEps[k]; !ok || v.Params.MinPts > sorted[j].Params.MinPts {
			bestForEps[k] = i
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

// Execute runs every variant in vs over the shared index and returns the
// per-variant results (indexed by original variant ID).
func Execute(ix *dbscan.Index, vs []variant.Variant, opt Options) (*RunResult, error) {
	return ExecuteContext(context.Background(), ix, vs, opt)
}

// ExecuteContext is Execute with cancellation: when ctx is canceled, no new
// variant executions start — not the next link of a running chain either —
// and the context error is returned once in-flight variants finish. A
// sequential variant execution is not interruptible (its work is bounded by
// one from-scratch DBSCAN run); a parallel one stops at its next chunk.
func ExecuteContext(ctx context.Context, ix *dbscan.Index, vs []variant.Variant, opt Options) (*RunResult, error) {
	if err := variant.Validate(vs); err != nil {
		return nil, err
	}
	// One build sized for the variant set's max ε serves every variant:
	// the grid kind's cell grid, shared by every chain's searches (a no-op
	// for the R-tree pair, which needs no ε).
	maxEps := 0.0
	for _, v := range vs {
		if v.Params.Eps > maxEps {
			maxEps = v.Params.Eps
		}
	}
	if err := ix.EnsureGrid(maxEps); err != nil {
		return nil, err
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = 1
	}
	// The queue's unit: an ε-chain by default, a variant under a paper strategy.
	chain := opt.Strategy == SchedEpsChain
	var queue [][]variant.Variant
	if chain {
		queue = units(variant.Sorted(vs), !opt.DisableReuse)
	} else {
		queue = units(order(vs, opt.Strategy), false)
	}
	norm := variant.NewNormalizer(vs)
	reg := &registry{}

	// treeParent maps a variant's original ID to its preferred source's
	// original ID under SCHEDTREE (-1 = cluster from scratch).
	treeParent := map[int]int{}
	if opt.Strategy == SchedTree {
		tree := variant.BuildDepTree(vs)
		for i, p := range tree.Parent {
			if p < 0 {
				treeParent[tree.Variants[i].ID] = -1
			} else {
				treeParent[tree.Variants[i].ID] = tree.Variants[p].ID
			}
		}
	}

	// scratchOnly marks the SCHEDMINPTS priority head: those variants are
	// clustered from scratch by construction.
	scratchOnly := map[int]bool{}
	if opt.Strategy == SchedMinPts {
		seen := map[float64]bool{}
		for _, u := range queue {
			if v := u[0]; !seen[v.Params.Eps] {
				seen[v.Params.Eps] = true
				scratchOnly[v.ID] = true
			} else {
				break // priority head is a prefix of the queue
			}
		}
	}

	var pool *donorPool
	var helper dbscan.Helper // nil, not a nil *donorPool, when nothing donates
	if opt.DonateIdle {
		pool = newDonorPool()
		helper = pool
	}

	results := make([]VariantResult, len(vs))
	var next int
	var nextMu sync.Mutex
	take := func() ([]variant.Variant, bool) {
		if ctx.Err() != nil {
			return nil, false
		}
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= len(queue) {
			return nil, false
		}
		u := queue[next]
		next++
		return u, true
	}
	var started atomic.Int64 // variants begun, for the cancellation error

	// start is the run's single monotonic basis: every VariantResult offset
	// and every trace event measures time.Since(start), so spans from
	// different workers order correctly against each other.
	start := time.Now()
	tr := opt.Tracer
	if tr != nil {
		names := make([]string, len(vs))
		for _, v := range vs {
			names[v.ID] = v.Params.String()
		}
		tr.StartRun(start, opt.Strategy.String(), names)
		runRec := tr.Worker(-1)
		pos := int64(0)
		for _, u := range queue {
			for _, v := range u {
				runRec.Event(obs.KindQueued, int32(v.ID), pos, 0)
				pos++
			}
		}
	}

	// prog serializes Progress callbacks and maintains the running reuse
	// mean; one short critical section per variant completion.
	var prog struct {
		sync.Mutex
		done    int
		fracSum float64
	}
	reportProgress := func(vr *VariantResult) {
		if opt.Progress == nil {
			return
		}
		prog.Lock()
		defer prog.Unlock()
		prog.done++
		prog.fracSum += vr.Stats.FractionReused
		opt.Progress(obs.ProgressEvent{
			Done:               prog.done,
			Total:              len(vs),
			Variant:            vr.Variant.ID,
			Source:             vr.SourceID,
			Worker:             vr.Worker,
			FractionReused:     vr.Stats.FractionReused,
			MeanFractionReused: prog.fracSum / float64(prog.done),
			FromScratch:        vr.Stats.FromScratch,
			Duration:           vr.End - vr.Start,
			Elapsed:            vr.End,
		})
	}

	// runUnit executes one queue unit on a pool worker. ctx is checked
	// between the links of a chain; a canceled unit returns nil and the
	// post-wait ctx check reports it.
	runUnit := func(worker int, rec *obs.Recorder, unit []variant.Variant) error {
		if pool != nil {
			pool.variantStarted()
			defer pool.variantFinished()
		}
		var link *dbscan.Link // the chain's previous link
		// Without intra-variant workers a chain's first link runs on this
		// goroutine alone, traced as scratch like every sequential run.
		seq := !opt.intraEnabled()
		for i, v := range unit {
			if i > 0 && ctx.Err() != nil {
				return nil
			}
			started.Add(1)
			vr := VariantResult{Variant: v, Worker: worker, SourceID: -1}
			vr.Start = time.Since(start)
			rec.Event(obs.KindStarted, int32(v.ID), 0, 0)

			var prev *cluster.Result
			if !chain && !opt.DisableReuse && !scratchOnly[v.ID] {
				var e *completedEntry
				var dist float64
				if opt.Strategy == SchedTree {
					if pid, ok := treeParent[v.ID]; ok && pid >= 0 {
						if e = reg.byID(pid); e != nil {
							dist = norm.Dist(v.Params, e.params)
						}
					}
				}
				if e == nil {
					e, dist = reg.choose(v.Params, norm)
				}
				if e != nil {
					prev = e.result
					vr.SourceID = e.id
					rec.Event(obs.KindSeedSelected, int32(v.ID), int64(e.id), dist)
				}
			}
			// With tracing on, the variant runs against its own counter
			// set so its work delta is exact even while other variants
			// accumulate concurrently; the delta is folded into the
			// run-wide totals afterwards, leaving them unchanged.
			vmet := opt.Metrics
			var own *metrics.Counters
			if tr != nil {
				own = new(metrics.Counters)
				vmet = own
			}
			popt := dbscan.ParallelOptions{Workers: max(opt.IntraWorkers, 1), Helper: helper,
				Rec: rec, Variant: int32(v.ID), Tiles: opt.Tiles}
			var res *cluster.Result
			var stats core.Stats
			var err error
			switch {
			case chain && link.Serves(v.Params):
				// A link its predecessor serves inherits every point's
				// ε-search.
				src := unit[i-1]
				vr.SourceID = src.ID
				stats = core.Stats{PointsReused: ix.Len(), FractionReused: 1}
				rec.Event(obs.KindSeedSelected, int32(v.ID), int64(src.ID), norm.Dist(v.Params, src.Params))
				res, link, err = dbscan.RunLink(ctx, ix, v.Params, link, popt, vmet)
			case chain && seq:
				// A lone R-tree variant keeps Run's expansion, which needs
				// no label or border tail; every other head records its
				// Link, cell-major on the grid kind.
				stats = core.Stats{FromScratch: true}
				rec.PhaseBegin(int32(v.ID), obs.PhaseScratch)
				if ix.Kind == dbscan.IndexRTree && i+1 == len(unit) {
					res, err = dbscan.RunCtx(ctx, ix, v.Params, vmet)
				} else {
					popt.Rec = nil
					res, link, err = dbscan.RunLink(ctx, ix, v.Params, nil, popt, vmet)
				}
				rec.PhaseEnd(int32(v.ID), obs.PhaseScratch)
			case chain:
				stats = core.Stats{FromScratch: true}
				res, link, err = dbscan.RunLink(ctx, ix, v.Params, nil, popt, vmet)
			case opt.intraEnabled() && (prev == nil || prev.NumClusters == 0):
				// From-scratch execution on the intra-variant parallel
				// path: label-identical to dbscan.Run, but chunked over
				// IntraWorkers goroutines plus any donated idle workers.
				res, err = dbscan.RunParallelOpts(ctx, ix, v.Params, popt, vmet)
				stats = core.Stats{FromScratch: true}
			default:
				res, stats, err = core.RunOpts(ix, v.Params, prev,
					core.Options{Scheme: opt.Scheme, MinSeedSize: opt.MinSeedSize,
						Rec: rec, Variant: int32(v.ID)}, vmet)
			}
			if own != nil {
				opt.Metrics.AddSnapshot(own.Snapshot())
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil // canceled mid-variant (interruptible parallel path)
				}
				return fmt.Errorf("variant %v: %w", v, err)
			}
			if stats.FromScratch {
				vr.SourceID = -1
			}
			vr.Result, vr.Stats = res, stats
			vr.End = time.Since(start)
			if !chain {
				reg.publish(completedEntry{params: v.Params, id: v.ID, result: res})
			}
			results[v.ID] = vr
			rec.Done(int32(v.ID), int64(vr.SourceID), stats.FractionReused, own.Snapshot())
			reportProgress(&vr)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rec := tr.Worker(worker) // nil recorder when tracing is off
			for errs[worker] == nil {
				unit, ok := take()
				if !ok {
					// No unit will ever be taken again (queue drained or
					// ctx canceled): donate this worker to the running
					// variants' intra-variant pools instead of parking.
					if pool != nil {
						pool.donate(rec)
					}
					return
				}
				errs[worker] = runUnit(worker, rec, unit)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: canceled after %d of %d variants: %w", started.Load(), len(vs), err)
	}

	rr := &RunResult{Results: results, Threads: threads, Makespan: time.Since(start)}
	for _, r := range results {
		rr.TotalWork += r.Duration()
	}
	tr.EndRun(rr.Makespan)
	return rr, nil
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
