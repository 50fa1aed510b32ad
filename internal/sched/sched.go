// Package sched executes a set of DBSCAN variants on a pool of worker
// goroutines. The queue unit is an ε-chain (dbscan.RunLink): the variants
// of one ε, minpts descending; the first runs from scratch and every later
// one replays the non-core records its predecessor wrote, at zero
// ε-searches. Every variant then has dbscan.Run's bytes and the same work
// counters at every pool width, on either index kind; DisableReuse makes
// every variant its own chain. Without intra-variant workers a chain's
// first link runs on one goroutine and is traced as one scratch phase, like
// every other sequential run: the cell-major dbscan.RunLink on the grid
// kind, and on the R-tree kind dbscan.RunLink at one worker, or
// dbscan.RunCtx when nothing follows it.
//
// Beyond one variant per worker, the pool supports *two-level* scheduling
// (Options.IntraWorkers / Options.DonateIdle): chain links can run on the
// intra-variant parallel path, and workers left idle once the queue drains
// — the |V| < T and end-of-run-tail regimes — donate themselves to the
// running variants' worker pools. Results are unchanged: the parallel path
// is label-identical to sequential DBSCAN.
//
// The paper's own executor — Alg. 3/4 cluster reuse under its online
// heuristics — is internal/paper, which only the figure harness imports.
package sched

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/variant"
)

// Options configures Execute.
type Options struct {
	// Threads is the worker pool size T; 1 when zero or negative.
	Threads int
	// DisableReuse forces every variant to cluster from scratch (the
	// multithreaded no-reuse baseline of scenario S1).
	DisableReuse bool
	// IntraWorkers is the per-variant worker count: when set above 1 (or
	// when DonateIdle is on), a chain's first link runs on the parallel
	// path of dbscan.RunLink instead of one goroutine, so a single variant
	// can use several cores. 0 or 1 keeps it on one worker unless
	// DonateIdle lends it more.
	IntraWorkers int
	// DonateIdle enables two-level scheduling: pool workers that find the
	// variant queue empty donate themselves to the parallel pass of
	// still-running variants instead of parking. This removes the idle
	// cores of the |V| < Threads and end-of-run-tail regimes without
	// changing any clustering result (the parallel path is label-identical
	// to sequential DBSCAN).
	DonateIdle bool
	// Tiles selects tile-level parallelism for chain heads on grid-kind
	// indexes (dbscan.ParallelOptions.Tiles): 0 is automatic,
	// 1 untiled, >= 2 an explicit tile target. Label-identical to the
	// untiled run; a value above 1 also enables the parallel path, like
	// IntraWorkers.
	Tiles int
	// Metrics optionally accumulates work counters across all variants.
	Metrics *metrics.Counters
	// Tracer optionally records the run's execution timeline: variant
	// lifecycle spans, seed-selection decisions, phase boundaries, donor
	// join/leave, and per-variant work deltas. Nil (the default) disables
	// tracing at zero cost — every recording call is a nil-receiver no-op
	// that allocates nothing.
	Tracer *obs.Tracer
	// Progress, when non-nil, is invoked serially after each variant
	// completes with the live run state (variants done, running mean reuse
	// fraction). It is called from worker goroutines — keep it fast.
	Progress func(obs.ProgressEvent)
}

// intraEnabled reports whether chain heads should take the parallel path.
func (o Options) intraEnabled() bool { return o.IntraWorkers > 1 || o.DonateIdle || o.Tiles > 1 }

// VariantResult is the outcome of one variant execution.
type VariantResult struct {
	Variant variant.Variant
	// Result holds labels in the index's sorted point space.
	Result *cluster.Result
	// FromScratch is true for a chain's first link.
	FromScratch bool
	// FractionReused is the fraction of points whose ε-search the variant
	// inherited: 1 after a chain's first link, 0 on it.
	FractionReused float64
	// SourceID is the original ID of the ε-chain predecessor whose
	// searches the variant inherited, or -1 for a chain's first link.
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
	// no-idle lower bound on the makespan.
	TotalWork time.Duration
	// Threads echoes the pool size used.
	Threads int
}

// units cuts the canonical order (ε ascending, minpts descending) into
// queue units: the ε-chains, each the run of variants sharing one ε, each
// after the first served by its predecessor's dbscan.Link — or, with chain
// unset, one variant each.
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
	queue := units(variant.Sorted(vs), !opt.DisableReuse)
	norm := variant.NewNormalizer(vs) // the seed-selected trace score

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
		tr.StartRun(start, "EPSCHAIN", names)
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
		prog.fracSum += vr.FractionReused
		opt.Progress(obs.ProgressEvent{
			Done:               prog.done,
			Total:              len(vs),
			Variant:            vr.Variant.ID,
			Source:             vr.SourceID,
			Worker:             vr.Worker,
			FractionReused:     vr.FractionReused,
			MeanFractionReused: prog.fracSum / float64(prog.done),
			FromScratch:        vr.FromScratch,
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
			var err error
			switch {
			case link.Serves(v.Params):
				// A link its predecessor serves inherits every point's
				// ε-search.
				src := unit[i-1]
				vr.SourceID, vr.FractionReused = src.ID, 1
				rec.Event(obs.KindSeedSelected, int32(v.ID), int64(src.ID), norm.Dist(v.Params, src.Params))
				res, link, err = dbscan.RunLink(ctx, ix, v.Params, link, popt, vmet)
			case seq:
				// A lone R-tree variant keeps Run's expansion, which needs
				// no label or border tail; every other head records its
				// Link, cell-major on the grid kind.
				vr.FromScratch = true
				rec.PhaseBegin(int32(v.ID), obs.PhaseScratch)
				if ix.Kind == dbscan.IndexRTree && i+1 == len(unit) {
					res, err = dbscan.RunCtx(ctx, ix, v.Params, vmet)
				} else {
					popt.Rec = nil
					res, link, err = dbscan.RunLink(ctx, ix, v.Params, nil, popt, vmet)
				}
				rec.PhaseEnd(int32(v.ID), obs.PhaseScratch)
			default:
				vr.FromScratch = true
				res, link, err = dbscan.RunLink(ctx, ix, v.Params, nil, popt, vmet)
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
			vr.Result = res
			vr.End = time.Since(start)
			results[v.ID] = vr
			rec.Done(int32(v.ID), int64(vr.SourceID), vr.FractionReused, own.Snapshot())
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
