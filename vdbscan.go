// Package vdbscan is a Go implementation of VariantDBSCAN — variant-based
// parallel density clustering as described in "Exploiting Variant-Based
// Parallelism for Data Mining of Space Weather Phenomena" (Gowanlock, Blair,
// Pankratius; IPPS 2016).
//
// The library clusters a 2-D point database with many DBSCAN parameter
// variants (ε, minpts) at once, maximizing throughput by
//
//   - sharing one immutable spatial index across all variants, built once
//     and only read afterwards — a changed point set gets a new Index. By
//     default it is a flat uniform cell grid sized for the variant set's
//     largest ε; WithIndexKind(IndexRTree) selects the paper's packed
//     R-tree with r points per leaf MBB for ε-searches;
//   - reusing the work of completed variants whose parameters satisfy
//     the inclusion criteria ε_i ≥ ε_j, minpts_i ≤ minpts_j: the variants
//     sharing one ε run as a chain, largest minpts first, and each later
//     one replays the ε-searches of the one before it, so every variant's
//     labels are exactly DBSCAN's; and
//   - scheduling those ε-chains across a goroutine pool, lending idle
//     workers to the chains still running.
//
// The paper's own cluster reuse (Alg. 3/4) and its scheduling heuristics
// are reproduced by cmd/experiments, not by this package.
//
// # Quick start
//
//	points := []vdbscan.Point{{X: 1, Y: 2}, ...}
//	idx := vdbscan.NewIndex(points)
//	run, err := idx.ClusterVariants([]vdbscan.Params{
//		{Eps: 0.4, MinPts: 8},
//		{Eps: 0.6, MinPts: 4},
//	}, vdbscan.WithThreads(8))
//
// Each entry of run.Results holds the clustering for the corresponding
// input parameters, with labels in the caller's point order (-1 = noise,
// 1..NumClusters = cluster IDs).
//
// # Options
//
// Configuration is split in two tiers. IndexOption values (WithR,
// WithBinWidth, WithIndexKind) fix the physical
// index layout and are accepted by NewIndex and NewIncremental. RunOption
// values (WithThreads, WithoutReuse, WithContext, WithProgress, WithLinks)
// shape one clustering run and are accepted by Index.Cluster and
// Index.ClusterVariants. Observability attachments (WithWork, WithTracer)
// implement both. Passing an option at the wrong tier — say,
// WithR on Index.ClusterVariants — is a compile-time error. The
// one-shot conveniences (Cluster, ClusterVariants, NewIncremental) build an
// index and run it, so they accept the whole Option set.
//
// # Errors
//
// Every error returned across this package's boundary is prefixed
// "vdbscan: " and supports errors.Is / errors.As against the cause chain:
// sentinel values (ErrFlatTooLarge, ErrSnapshotCorrupt) and context
// errors (context.Canceled, context.DeadlineExceeded from a WithContext
// cancellation) are matchable through any wrapping this package adds.
package vdbscan

import (
	"context"
	"fmt"
	"time"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/quality"
	"vdbscan/internal/sched"
	"vdbscan/internal/variant"
)

// Point is a 2-D observation (for TEC maps: longitude-like X and
// latitude-like Y, in degrees).
type Point = geom.Point

// Params are the DBSCAN inputs defining one variant: the neighborhood
// radius Eps and the core-point threshold MinPts.
type Params = dbscan.Params

// Clustering is a clustering result. Labels[i] is the label of input point
// i: Noise (-1) or a cluster ID in 1..NumClusters.
type Clustering = cluster.Result

// Noise is the label of outlier points.
const Noise = cluster.Noise

// Work is a snapshot of the work counters accumulated during a run:
// ε-neighborhood searches, candidate points filtered, points reused from
// completed variants, and index nodes (tree nodes or grid cells) visited.
type Work = metrics.Snapshot

// Tracer records a clustering run's execution timeline: variant lifecycle
// spans (queued → started → seed-selected → phases → done), the worker
// that ran each variant and its seed source, and per-variant work deltas.
// Create one with NewTracer, attach it with WithTracer, then export with
// WriteChromeTrace (Chrome trace-event JSON, loadable in chrome://tracing
// or https://ui.perfetto.dev) or WriteTimeline (plain text). A Tracer holds
// one run; reusing it across runs keeps only the last. A nil *Tracer is
// valid everywhere and disables tracing at zero cost.
type Tracer = obs.Tracer

// NewTracer returns an enabled execution tracer for WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// ProgressEvent is one live progress report delivered to the WithProgress
// callback after each variant completes.
type ProgressEvent = obs.ProgressEvent

// IndexOption configures index construction: NewIndex, NewIncremental, and
// the one-shot conveniences accept it. Index options select the physical
// layout of the shared index (kind, leaf occupancy, bin width) and are
// fixed for the life of the Index.
type IndexOption interface {
	Option
	indexOption()
}

// RunOption configures one clustering run: Index.Cluster,
// Index.ClusterVariants, and the one-shot conveniences accept it. Run
// options select scheduling, reuse, parallelism, cancellation, and
// observability for that run only; the same Index can serve concurrent runs
// with different run options.
type RunOption interface {
	Option
	runOption()
}

// SharedOption is an option valid at either tier: it is both an
// IndexOption and a RunOption. The observability attachments (WithWork,
// WithTracer) return it, so they can be passed anywhere an option is
// accepted.
type SharedOption interface {
	IndexOption
	RunOption
}

// Option is any configuration option — the common supertype of IndexOption
// and RunOption. Entry points that both build an index and run it (the
// one-shot Cluster/ClusterVariants, NewIncremental) accept the full Option
// set; heterogeneous option slices are declared as []Option.
//
// Deprecated: in signatures of new code, accept the precise IndexOption or
// RunOption instead, so misuse (an index-layout knob on a run, a scheduling
// knob at index build) is a compile-time error. Option remains so existing
// callers keep compiling unchanged.
type Option interface {
	apply(*config)
}

// indexOpt is the concrete type of index-time-only options.
type indexOpt func(*config)

func (o indexOpt) apply(c *config) { o(c) }
func (indexOpt) indexOption()      {}

// runOpt is the concrete type of run-time-only options.
type runOpt func(*config)

func (o runOpt) apply(c *config) { o(c) }
func (runOpt) runOption()        {}

// sharedOpt is the concrete type of options valid in either position
// (observability attachments); it implements both interfaces.
type sharedOpt func(*config)

func (o sharedOpt) apply(c *config) { o(c) }
func (sharedOpt) indexOption()      {}
func (sharedOpt) runOption()        {}

// splitOptions partitions a mixed option list for the one-shot entry points
// that construct an index and immediately run it.
func splitOptions(opts []Option) (ix []IndexOption, run []RunOption) {
	for _, o := range opts {
		if io, ok := o.(IndexOption); ok {
			ix = append(ix, io)
		}
		if ro, ok := o.(RunOption); ok {
			run = append(run, ro)
		}
	}
	return ix, run
}

type config struct {
	ctx          context.Context
	r            int
	binWidth     float64
	threads      int
	disableReuse bool
	kind         IndexKind
	work         *Work
	tracer       *Tracer
	progress     func(ProgressEvent)
	links        *Links
}

func buildConfig[O Option](opts []O) config {
	c := config{
		ctx:      context.Background(),
		r:        dbscan.DefaultR,
		binWidth: dbscan.DefaultBinWidth,
		threads:  1,
	}
	for _, o := range opts {
		o.apply(&c)
	}
	return c
}

// WithR sets the leaf occupancy r of the ε-search R-tree (IndexRTree): the
// number of points indexed per minimum bounding box. Larger r trades extra
// candidate filtering for fewer memory accesses; the paper finds 70–110
// good in degree-scaled TEC data (default 70). A grid index builds no tree
// for its searches and only records r.
func WithR(r int) IndexOption { return indexOpt(func(c *config) { c.r = r }) }

// WithBinWidth sets the width of the spatial sorting bins applied before
// indexing (default 1, the paper's unit-width bins).
func WithBinWidth(w float64) IndexOption { return indexOpt(func(c *config) { c.binWidth = w }) }

// IndexKind selects the ε-search substrate; see WithIndexKind.
type IndexKind = dbscan.IndexKind

// Index kinds accepted by WithIndexKind.
const (
	// IndexGrid, the default, serves ε-searches from a flat uniform cell
	// grid: coordinates are grid-sorted into contiguous runs with one CSR
	// offset per cell, and a search scans the 3×3 cell block around the
	// query through the block distance kernel. The grid's cell side is
	// sized for the variant set's largest ε on first use, so one build
	// serves every variant. A from-scratch run — Cluster, and the first
	// link of every ε-chain (ClusterVariants) — is cell-major: a cell dense
	// enough to be all-core is never searched, every other point counts
	// its neighbours only up to MinPts, and the cores are linked by
	// closest-pair tests between cells (Wang, Gu & Shun; de Berg et al.).
	// No R-tree is built.
	IndexGrid = dbscan.IndexGrid
	// IndexRTree is the paper's packed R-tree: one shared tree with r
	// points per leaf serves every variant's ε-searches. It holds its
	// ground under heavy density skew or very wide ε spreads.
	IndexRTree = dbscan.IndexRTree
)

// WithIndexKind selects the ε-search index structure (default
// IndexGrid). The output of Cluster and ClusterVariants is byte-identical
// across kinds — only the search substrate, and therefore the performance
// envelope, changes.
func WithIndexKind(k IndexKind) IndexOption { return indexOpt(func(c *config) { c.kind = k }) }

// WithThreads sets the parallel width T of a run (default 1), the only
// one a caller chooses. Cluster runs its one variant on T workers, cutting
// a grid index's cells into point-balanced tiles when T and the point
// count justify it. ClusterVariants runs its ε-chains on a pool of at most
// T workers, one per chain, and every variant of a chain on T workers as
// Cluster does. Either way WithThreads(8) uses 8 cores whether you cluster
// one variant or eighty, and the labels are the same at every T.
func WithThreads(t int) RunOption { return runOpt(func(c *config) { c.threads = t }) }

// WithoutReuse forces every variant to cluster from scratch, keeping only
// the shared-index parallelism (the paper's scenario-S1 baseline).
func WithoutReuse() RunOption { return runOpt(func(c *config) { c.disableReuse = true }) }

// WithWork records the run's accumulated work counters into w.
func WithWork(w *Work) SharedOption { return sharedOpt(func(c *config) { c.work = w }) }

// WithTracer attaches an execution tracer to Cluster or ClusterVariants.
// The tracer records structured span events at variant/phase granularity
// (never per ε-search): a variant's phases are traced on the pool worker
// that ran it, whatever the width of its passes. The clustering output and
// the hot-path allocation behavior are identical with tracing on or off; a
// nil t is the same as not passing the option.
func WithTracer(t *Tracer) SharedOption { return sharedOpt(func(c *config) { c.tracer = t }) }

// WithProgress registers a live progress callback for ClusterVariants,
// invoked serially after each variant completes with the variants-done
// count and the running mean reuse fraction. The callback runs on worker
// goroutines — keep it fast and non-blocking.
func WithProgress(f func(ProgressEvent)) RunOption {
	return runOpt(func(c *config) { c.progress = f })
}

// Links is a library of ε-chain heads kept across runs on one Index: for
// each ε, the state the largest-MinPts from-scratch run left behind — core
// flags, core connectivity, and the neighbourhoods of the non-core points.
// A later run passed WithLinks replays it for any variant of that ε with a
// MinPts no larger instead of searching the index, and every other chain
// head it runs from scratch offers its own. The library holds at most
// LinkBytesPerPoint bytes per indexed point, dropping the least recently
// used ε past that. Labels never depend on what it holds. Create one with
// Index.NewLinks; it is safe for concurrent use by any number of runs.
type Links struct {
	x   *Index
	lib *sched.Links
}

// LinkBytesPerPoint bounds a Links library's memory: it never holds more
// than this many bytes per point of its Index. A kept head costs 8 B per
// point plus 4 B per neighbour entry of its non-core points.
const LinkBytesPerPoint = sched.LinkBytesPerPoint

// NewLinks returns an empty Links library for runs on x.
func (x *Index) NewLinks() *Links { return &Links{x: x, lib: sched.NewLinks(x.ix)} }

// Serves reports whether l holds a kept head that serves p: a run of p
// passed WithLinks(l) would replay it at zero ε-searches.
func (l *Links) Serves(p Params) bool { return l.lib.Serving(p) != nil }

// Bytes is the memory l's kept heads hold, at most LinkBytesPerPoint times
// its Index's point count.
func (l *Links) Bytes() int64 { return l.lib.Bytes() }

// WithLinks lets Cluster and ClusterVariants replay and keep ε-chain heads
// in l, a library made by the same Index's NewLinks (ErrForeignLinks
// otherwise). A variant it serves reports FromScratch false, FractionReused
// 1 and SourceIndex -1. Without it nothing outlives a run. WithoutReuse
// turns it off.
func WithLinks(l *Links) RunOption { return runOpt(func(c *config) { c.links = l }) }

// library is the run's Links library on x: nil without WithLinks or under
// WithoutReuse, ErrForeignLinks when it belongs to another Index.
func (c *config) library(x *Index) (*sched.Links, error) {
	switch {
	case c.links == nil || c.disableReuse:
		return nil, nil
	case c.links.x != x:
		return nil, wrapErr(ErrForeignLinks)
	}
	return c.links.lib, nil
}

// WithContext attaches a cancellation context to ClusterVariants: when ctx
// is canceled, no further variants start and the run returns ctx's error.
func WithContext(ctx context.Context) RunOption {
	return runOpt(func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	})
}

// Index is an immutable spatial index over one point database, shared by
// any number of clustering runs (concurrently safe once built).
type Index struct {
	ix  *dbscan.Index
	pts []Point
}

// NewIndex grid-sorts a copy of points into the shared index's
// struct-of-arrays layout (WithIndexKind, WithR and WithBinWidth select
// it). An IndexRTree index also builds its ε-search R-tree; the default
// IndexGrid one builds its cell grid on first use, sized for that run's
// largest ε. The input slice is not retained or modified.
func NewIndex(points []Point, opts ...IndexOption) *Index {
	c := buildConfig(opts)
	cp := append([]Point(nil), points...)
	return &Index{
		ix:  dbscan.BuildIndex(cp, dbscan.IndexOptions{R: c.r, BinWidth: c.binWidth, Kind: c.kind}),
		pts: cp,
	}
}

// Len returns the number of indexed points.
func (x *Index) Len() int { return x.ix.Len() }

// R returns the ε-search R-tree's leaf occupancy (WithR), whether or not
// the index's kind builds that tree.
func (x *Index) R() int { return x.ix.R() }

// Points returns the indexed points in the caller's original order.
func (x *Index) Points() []Point { return x.pts }

// Cluster runs a single DBSCAN variant and returns labels in the caller's
// point order. It honors WithContext (cancellation is checked coarsely,
// every ~1k points) and parallelizes across WithThreads goroutines; the
// result is identical at any width.
func (x *Index) Cluster(p Params, opts ...RunOption) (*Clustering, error) {
	c := buildConfig(opts)
	lib, err := c.library(x)
	if err != nil {
		return nil, err
	}
	prev := lib.Serving(p)
	var m metrics.Counters
	var res *cluster.Result
	var link *dbscan.Link
	// A traced single-variant run is a one-variant schedule: the same span
	// structure ClusterVariants emits, on worker 0.
	start := time.Now()
	c.tracer.StartRun(start, "single-variant", []string{p.String()})
	rec := c.tracer.Worker(0)
	rec.Event(obs.KindStarted, 0, 0, 0)
	// A grid-kind index takes the parallel runner at every width, one
	// thread included: its cell-major pass does a fraction of RunCtx's
	// work, and the work counters then read the same at any -threads. A
	// run with a library keeps its Link, or replays the library's.
	popt := dbscan.ParallelOptions{Workers: max(c.threads, 1), Rec: rec}
	x.ix.KeepCells(p.Eps) // a repeated call walks the cells this one builds
	switch {
	case lib != nil:
		res, link, err = dbscan.RunLink(c.ctx, x.ix, p, prev, popt, &m)
	case c.threads > 1 || x.ix.Kind == dbscan.IndexGrid:
		res, err = dbscan.RunParallelOpts(c.ctx, x.ix, p, popt, &m)
	default:
		rec.PhaseBegin(0, obs.PhaseScratch)
		res, err = dbscan.RunCtx(c.ctx, x.ix, p, &m)
		rec.PhaseEnd(0, obs.PhaseScratch)
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	frac := 0.0
	if prev != nil {
		frac = 1
	} else {
		lib.Offer(link)
	}
	rec.Done(0, -1, frac, m.Snapshot())
	c.tracer.EndRun(time.Since(start))
	if c.progress != nil {
		el := time.Since(start)
		c.progress(ProgressEvent{Done: 1, Total: 1, Variant: 0, Source: -1,
			FractionReused: frac, MeanFractionReused: frac,
			FromScratch: prev == nil, Duration: el, Elapsed: el})
	}
	if c.work != nil {
		*c.work = c.work.Add(m.Snapshot())
	}
	return res.Remap(x.ix.Fwd), nil
}

// VariantResult is the outcome of one variant in a ClusterVariants run.
type VariantResult struct {
	// Params echoes the variant's parameters.
	Params Params
	// Clustering holds labels in the caller's point order.
	Clustering *Clustering
	// FromScratch is true when the variant ran plain DBSCAN: the first
	// link of its ε-chain unless a WithLinks library served it, or every
	// variant under WithoutReuse.
	FromScratch bool
	// FractionReused is the fraction of points copied from a completed
	// variant without an ε-neighborhood search; 1 for a variant that
	// inherited every search from its ε-chain predecessor or the library.
	FractionReused float64
	// SourceIndex is the position (in the input params slice) of the
	// ε-chain predecessor whose searches were reused, or -1: from scratch,
	// or, with FromScratch false, served by the WithLinks library.
	SourceIndex int
	// Worker identifies the pool worker that ran the variant; the pool is
	// no wider than WithThreads or the number of ε-chains.
	Worker int
	// Start and End are offsets from the run's start instant — one
	// time.Time captured when ClusterVariants begins, measured with
	// time.Since and therefore derived from Go's monotonic clock. All
	// workers (and any attached Tracer) share that basis, so spans from
	// different workers order correctly against each other and nest within
	// [0, VariantRun.Makespan] regardless of wall-clock adjustments.
	Start, End time.Duration
}

// Duration returns the variant's response time.
func (vr VariantResult) Duration() time.Duration { return vr.End - vr.Start }

// VariantRun is the outcome of executing a whole variant set.
type VariantRun struct {
	// Results is parallel to the input params slice.
	Results []VariantResult
	// Makespan is the wall-clock duration of the run.
	Makespan time.Duration
	// TotalWork is the sum of per-variant durations (TotalWork/Threads is
	// the no-idle lower bound on the makespan).
	TotalWork time.Duration
	// Threads echoes WithThreads: the width every variant ran at.
	Threads int
}

// MeanFractionReused averages the per-variant fraction of reused points.
func (r *VariantRun) MeanFractionReused() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	var sum float64
	for _, vr := range r.Results {
		sum += vr.FractionReused
	}
	return sum / float64(len(r.Results))
}

// ClusterVariants executes every parameter variant with VariantDBSCAN on
// WithThreads workers. The variants sharing one ε run as a chain, largest
// minpts first, in order on one pool worker: the first runs from scratch
// and keeps its core flags, core-connectivity union-find and the neighbour
// lists of its non-core points, and every later one replays those lists
// under its smaller minpts — no ε-search, exact by the monotonicity the
// paper's inclusion criterion rests on. Every variant's labels are then
// those of Index.Cluster for its parameters, on either index kind, at
// every WithThreads width and with reuse on or off (WithoutReuse: every
// variant from scratch), and the sweep's work counters read the same at
// every width.
func (x *Index) ClusterVariants(params []Params, opts ...RunOption) (*VariantRun, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("vdbscan: no variants given")
	}
	c := buildConfig(opts)
	lib, err := c.library(x)
	if err != nil {
		return nil, err
	}
	var m metrics.Counters
	rr, err := sched.ExecuteContext(c.ctx, x.ix, variant.New(params), sched.Options{
		Threads:      c.threads,
		DisableReuse: c.disableReuse,
		Metrics:      &m,
		Tracer:       c.tracer,
		Progress:     c.progress,
		Links:        lib,
	})
	if err != nil {
		return nil, wrapErr(err)
	}
	if c.work != nil {
		*c.work = c.work.Add(m.Snapshot())
	}
	out := &VariantRun{
		Results:   make([]VariantResult, len(params)),
		Makespan:  rr.Makespan,
		TotalWork: rr.TotalWork,
		Threads:   rr.Threads,
	}
	for i, r := range rr.Results {
		out.Results[i] = VariantResult{
			Params:         r.Variant.Params,
			Clustering:     r.Result,
			FromScratch:    r.FromScratch,
			FractionReused: r.FractionReused,
			SourceIndex:    r.SourceID,
			Worker:         r.Worker,
			Start:          r.Start,
			End:            r.End,
		}
	}
	return out, nil
}

// Cluster is the one-shot convenience: index points and run a single
// DBSCAN variant. It accepts the full Option set (index and run options).
func Cluster(points []Point, p Params, opts ...Option) (*Clustering, error) {
	ixOpts, runOpts := splitOptions(opts)
	return NewIndex(points, ixOpts...).Cluster(p, runOpts...)
}

// ClusterVariants is the one-shot convenience: index points and run every
// variant with VariantDBSCAN. It accepts the full Option set (index and run
// options).
func ClusterVariants(points []Point, params []Params, opts ...Option) (*VariantRun, error) {
	ixOpts, runOpts := splitOptions(opts)
	return NewIndex(points, ixOpts...).ClusterVariants(params, runOpts...)
}

// Quality scores candidate against reference with the per-point Jaccard
// metric of paper §V-D: 1.0 means identical assignments; the paper reports
// VariantDBSCAN ≥ 0.998 versus plain DBSCAN.
func Quality(reference, candidate *Clustering) (float64, error) {
	q, err := quality.Score(reference, candidate)
	return q, wrapErr(err)
}

// CanReuse reports whether a variant with parameters target may reuse the
// completed clustering of a variant with parameters source (the inclusion
// criteria of paper §IV-B).
func CanReuse(target, source Params) bool {
	return variant.CanReuse(target, source)
}

// CartesianVariants builds the variant set V = A × B used throughout the
// paper's evaluation: every ε in epsValues crossed with every minpts in
// minptsValues.
func CartesianVariants(epsValues []float64, minptsValues []int) []Params {
	out := make([]Params, 0, len(epsValues)*len(minptsValues))
	for _, e := range epsValues {
		for _, mp := range minptsValues {
			out = append(out, Params{Eps: e, MinPts: mp})
		}
	}
	return out
}
