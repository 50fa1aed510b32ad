// Package sched executes a set of DBSCAN variants on a pool of worker
// goroutines. The queue unit is an ε-chain (dbscan.RunLink): the variants
// of one ε, minpts descending; the first runs from scratch and every later
// one advances the chain's state in place (dbscan.Link.Advance) through the
// head's records that turn core at its minpts, at zero ε-searches. Every
// variant then has dbscan.Run's bytes and the same work counters at every
// pool width, on either index kind; DisableReuse makes every variant its
// own chain. On a one-worker pool a chain's first link runs on that
// goroutine and is traced as one scratch phase, like every other
// sequential run: the cell-major dbscan.RunLink on the grid kind, and on
// the R-tree kind dbscan.RunLink at one worker, or dbscan.RunCtx when
// nothing follows it.
//
// There is one pool of ε-chains, min(T, chains) wide, and every link runs
// at the full width T, exactly as Index.Cluster does at WithThreads(T):
// while fewer chains than cores are running, the Go scheduler gives their
// passes' goroutines the idle cores. Results are unchanged: the parallel
// path is label-identical to sequential DBSCAN.
//
// Across ε, a grid-kind head run from scratch takes the core set an earlier
// head publishes at its mark-pass barrier (coreSources); those points are
// core without an ε-search and bill as PointsReused. The head stays
// FromScratch with SourceID -1.
//
// A Links library (Options.Links) carries chain heads across runs on one
// index: a chain whose head an earlier run's Link serves replays it too.
//
// The paper's own executor — Alg. 3/4 cluster reuse under its online
// heuristics — is internal/paper, which only the figure harness imports.
package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/forkjoin"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/variant"
)

// Options configures Execute.
type Options struct {
	// Threads is the parallel width T; 1 when zero or negative. The pool
	// runs min(T, chains) chains at once, and every link's parallel passes
	// run T wide.
	Threads int
	// DisableReuse forces every variant to cluster from scratch (the
	// multithreaded no-reuse baseline of scenario S1).
	DisableReuse bool
	// Metrics optionally accumulates work counters across all variants.
	Metrics *metrics.Counters
	// Tracer optionally records the run's execution timeline: variant
	// lifecycle spans, seed-selection decisions, phase boundaries and
	// per-variant work deltas. Nil (the default) disables tracing at zero
	// cost — every recording call is a nil-receiver no-op that allocates
	// nothing.
	Tracer *obs.Tracer
	// Progress, when non-nil, is invoked serially after each variant
	// completes with the live run state (variants done, running mean reuse
	// fraction). It is called from worker goroutines — keep it fast.
	Progress func(obs.ProgressEvent)
	// Links, when non-nil, is the index's library of chain heads kept
	// across runs: a chain whose head it serves replays that Link instead
	// of running from scratch, and a head that does run from scratch
	// offers it its Link. It must be ix's (ErrForeignLinks otherwise) and
	// is ignored under DisableReuse.
	Links *Links
}

// VariantResult is the outcome of one variant execution.
type VariantResult struct {
	Variant variant.Variant
	// Result holds labels in the caller's point order: the worker that
	// ran the variant remaps them through the index's Fwd.
	Result *cluster.Result
	// FromScratch is true for a chain's first link, unless Options.Links
	// served it.
	FromScratch bool
	// FractionReused is the fraction of points whose ε-search the variant
	// inherited: 0 on a from-scratch link, 1 on every other.
	FractionReused float64
	// SourceID is the original ID of the ε-chain predecessor whose
	// searches the variant inherited, or -1 for a chain's first link —
	// from scratch, or a replay of Options.Links.
	SourceID int
	// Worker is the pool worker (0..min(T, chains)-1) that ran the variant.
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
	// Threads echoes the parallel width T every link ran at.
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

// runLink is dbscan.RunLink; a test replaces it to make a head fail.
var runLink = dbscan.RunLink

// coreSources links each queue unit's head to the latest earlier head it
// may reuse by the inclusion criterion at a smaller ε: wait[k] is the seed
// unit k's head takes, pub[k] the one it publishes, nil where there is none.
// The links depend on the variant set alone, so the counters do not depend
// on the schedule; take hands out units in order, so a source is taken
// before its waiters.
func coreSources(queue [][]variant.Variant, wait, pub []*coreSeed) {
	for k, u := range queue {
		for j := k - 1; j >= 0; j-- {
			if vj := queue[j][0]; vj.Params.Eps < u[0].Params.Eps && variant.CanReuse(u[0].Params, vj.Params) {
				if pub[j] == nil {
					pub[j] = &coreSeed{from: vj.ID, ready: make(chan struct{})}
				}
				wait[k] = pub[j]
				break
			}
		}
	}
}

// coreSeed is a chain head's core set, published once to the heads it seeds.
type coreSeed struct {
	from  int // the head's variant ID
	once  sync.Once
	ready chan struct{}
	core  dbscan.CoreSet // nil when the head failed or was canceled first
}

// publish sets the seed to c, unless it was published before. A nil seed
// ignores it.
func (s *coreSeed) publish(c dbscan.CoreSet) {
	if s != nil {
		s.once.Do(func() { s.core = c; close(s.ready) })
	}
}

// wait returns the published core set, or nil once ctx is done first.
func (s *coreSeed) wait(ctx context.Context) dbscan.CoreSet {
	select {
	case <-s.ready:
		return s.core
	case <-ctx.Done():
		return nil
	}
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
// one from-scratch DBSCAN run); a parallel one stops at its next chunk. A
// variant that fails cancels the run the same way, and its error is the
// one returned.
func ExecuteContext(parent context.Context, ix *dbscan.Index, vs []variant.Variant, opt Options) (*RunResult, error) {
	if err := variant.Validate(vs); err != nil {
		return nil, err
	}
	lib := opt.Links
	if lib != nil && lib.ix != ix {
		return nil, ErrForeignLinks
	}
	if opt.DisableReuse {
		lib = nil
	}
	// One build sized for the variant set's max ε serves every variant:
	// the grid kind's cell grid, shared by every chain's searches (a no-op
	// for the R-tree pair, which needs no ε). The index keeps the cell
	// decompositions of the set's ε values, so a repeated sweep builds none.
	eps := make([]float64, len(vs))
	for i, v := range vs {
		eps[i] = v.Params.Eps
	}
	if err := ix.EnsureGrid(slices.Max(eps)); err != nil {
		return nil, err
	}
	ix.KeepCells(eps...)
	threads := opt.Threads
	if threads <= 0 {
		threads = 1
	}
	queue := units(variant.Sorted(vs), !opt.DisableReuse)
	norm := variant.NewNormalizer(vs) // the seed-selected trace score
	wait, pub := make([]*coreSeed, len(queue)), make([]*coreSeed, len(queue))
	if !opt.DisableReuse && ix.Kind == dbscan.IndexGrid {
		coreSources(queue, wait, pub)
	}

	// ctx is the run's own: the first unit to fail cancels it with its
	// error as the cause, which stops take, the later links of the chains
	// in flight and every head waiting for a seed.
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)

	results := make([]VariantResult, len(vs))
	var next int
	var nextMu sync.Mutex
	take := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= len(queue) {
			return 0, false
		}
		next++
		return next - 1, true
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

	// runUnit executes queue unit k on a pool worker. ctx is checked
	// between the links of a chain; a canceled unit returns nil and the
	// post-wait ctx check reports it.
	runUnit := func(worker int, rec *obs.Recorder, k int) error {
		unit := queue[k]
		// The chain's previous link; before the head, the library's. It
		// advances in place once the chain owns it: RunLink's clone of a
		// Link the library holds or was offered, or a head no library saw.
		link, owned := lib.Serving(unit[0].Params), false
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
			popt := dbscan.ParallelOptions{Workers: threads, Rec: rec, Variant: int32(v.ID)}
			if p := pub[k]; i == 0 && p != nil {
				popt.Publish = p.publish
			}
			if w := wait[k]; i == 0 && w != nil {
				popt.Seed = func() dbscan.CoreSet { return w.wait(ctx) }
			}
			var res *cluster.Result
			var err error
			switch {
			case link.Serves(v.Params):
				// A link its predecessor — or, for the head, the library
				// — serves inherits every point's ε-search.
				vr.FractionReused = 1
				if i > 0 {
					src := unit[i-1]
					vr.SourceID = src.ID
					rec.Event(obs.KindSeedSelected, int32(v.ID), int64(src.ID), norm.Dist(v.Params, src.Params))
				}
				if owned {
					res, err = link.Advance(ctx, v.Params, popt, vmet)
				} else {
					res, link, err = runLink(ctx, ix, v.Params, link, popt, vmet)
				}
				owned = true
			case threads == 1:
				// On a one-worker pool a chain's first link runs on this
				// goroutine alone, traced as scratch like every sequential
				// run. A lone R-tree variant keeps Run's expansion, which
				// needs no label or border tail, unless a library keeps its
				// Link; every other head records its Link, cell-major on
				// the grid kind.
				vr.FromScratch = true
				rec.PhaseBegin(int32(v.ID), obs.PhaseScratch)
				if ix.Kind == dbscan.IndexRTree && i+1 == len(unit) && lib == nil {
					res, err = dbscan.RunCtx(ctx, ix, v.Params, vmet)
				} else {
					popt.Rec = nil
					res, link, err = runLink(ctx, ix, v.Params, nil, popt, vmet)
				}
				rec.PhaseEnd(int32(v.ID), obs.PhaseScratch)
			default:
				vr.FromScratch = true
				res, link, err = runLink(ctx, ix, v.Params, nil, popt, vmet)
			}
			if own != nil {
				opt.Metrics.AddSnapshot(own.Snapshot())
			}
			if i == 0 {
				pub[k].publish(nil) // none, unless the run published its own
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil // canceled mid-variant (interruptible parallel path)
				}
				return fmt.Errorf("variant %v: %w", v, err)
			}
			if vr.FromScratch {
				lib.Offer(link)
				owned = lib == nil
			}
			if n := own.Snapshot().PointsReused; n > 0 && i == 0 && wait[k] != nil {
				rec.Event(obs.KindSeeded, int32(v.ID), int64(wait[k].from), float64(n))
			}
			vr.Result = res.Remap(ix.Fwd)
			vr.End = time.Since(start)
			results[v.ID] = vr
			rec.Done(int32(v.ID), int64(vr.SourceID), vr.FractionReused, own.Snapshot())
			reportProgress(&vr)
		}
		return nil
	}

	width := min(threads, len(queue))
	errs := make([]error, width)
	forkjoin.Do(width, func(worker int) {
		rec := tr.Worker(worker) // nil recorder when tracing is off
		for errs[worker] == nil {
			k, ok := take()
			if !ok {
				return
			}
			if errs[worker] = runUnit(worker, rec, k); errs[worker] != nil {
				cancel(errs[worker])
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := parent.Err(); err != nil {
		return nil, fmt.Errorf("sched: canceled after %d of %d variants: %w", started.Load(), len(vs), err)
	}

	rr := &RunResult{Results: results, Threads: threads, Makespan: time.Since(start)}
	for _, r := range results {
		rr.TotalWork += r.Duration()
	}
	tr.EndRun(rr.Makespan)
	return rr, nil
}
