// Package vdbscan is a Go implementation of VariantDBSCAN — variant-based
// parallel density clustering as described in "Exploiting Variant-Based
// Parallelism for Data Mining of Space Weather Phenomena" (Gowanlock, Blair,
// Pankratius; IPPS 2016).
//
// The library clusters a 2-D point database with many DBSCAN parameter
// variants (ε, minpts) at once, maximizing throughput by
//
//   - sharing one immutable pair of R-tree indexes across all variants
//     (a low-resolution tree with r points per leaf MBB for ε-searches and
//     a high-resolution tree for cluster sweeps), built once and only read
//     afterwards — a changed point set gets a new Index;
//   - reusing the work of completed variants whose parameters satisfy
//     the inclusion criteria ε_i ≥ ε_j, minpts_i ≤ minpts_j — by default
//     each point's ε-search along a chain of one ε (SchedEpsChain), or
//     the paper's cluster reuse under an explicit strategy; and
//   - scheduling variant executions across a goroutine pool so that useful
//     reuse sources complete early.
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
// WithBinWidth, WithIndexKind, WithRefreezeThreshold) fix the physical
// index layout and are accepted by NewIndex and NewIncremental. RunOption
// values (WithThreads, WithIntraThreads, WithReuseScheme, WithStrategy,
// WithMinSeedSize, WithoutReuse, WithContext, WithProgress) shape one
// clustering run and are accepted by Index.Cluster and
// Index.ClusterVariants. Observability attachments (WithWork, WithTracer)
// implement both. Passing an option at the wrong tier — say,
// WithRefreezeThreshold on ClusterVariants — is a compile-time error. The
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
	"vdbscan/internal/reuse"
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
// completed variants, and R-tree nodes visited.
type Work = metrics.Snapshot

// ReuseScheme selects the seed-cluster prioritization used when a variant
// reuses a completed variant's clusters (paper §IV-C).
type ReuseScheme = reuse.Scheme

// Reuse schemes, in the paper's naming.
const (
	// ClusDefault expands seed clusters in generation order.
	ClusDefault = reuse.ClusDefault
	// ClusDensity expands the densest clusters (|C|/area) first — the
	// paper's recommended scheme and this package's default.
	ClusDensity = reuse.ClusDensity
	// ClusPtsSquared expands clusters by |C|²/area, favoring point count.
	ClusPtsSquared = reuse.ClusPtsSquared
)

// SchedStrategy selects how ClusterVariants schedules and reuses variants.
type SchedStrategy = sched.Strategy

// Scheduling strategies: the default ε-chains, then the paper's heuristics
// (§IV-D) in its naming.
const (
	// SchedEpsChain, the default, runs the variants sharing one ε, largest
	// minpts first, in order on one pool worker: the first runs from
	// scratch and keeps its core flags, core-connectivity union-find and
	// the neighbour lists of its non-core points, and every later one
	// replays those lists under its smaller minpts — no ε-search, exact by
	// the monotonicity the paper's inclusion criterion rests on. Every
	// variant's labels are then those of Index.Cluster for its parameters,
	// on either index kind, at every WithThreads width and with reuse on or
	// off (WithoutReuse: every variant from scratch), and the sweep's work
	// counters read the same at every width.
	SchedEpsChain = sched.SchedEpsChain
	// SchedGreedy reuses the completed variant with the smallest parameter
	// difference — the paper's more robust heuristic.
	SchedGreedy = sched.SchedGreedy
	// SchedMinPts first clusters, from scratch, the max-minpts variant of
	// each unique ε to diversify reuse sources.
	SchedMinPts = sched.SchedMinPts
	// SchedTree executes the dependency tree of minimal parameter
	// differences depth-first, pinning each variant's reuse source to its
	// tree parent (an extension beyond the paper's two heuristics).
	SchedTree = sched.SchedTree
)

// Tracer records a clustering run's execution timeline: variant lifecycle
// spans (queued → started → seed-selected → expand/scratch phases → done),
// scheduler decisions, donor activity, and per-variant work deltas. Create
// one with NewTracer, attach it with WithTracer, then export with
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
// layout of the shared R-trees (leaf occupancy, bin width, flat freezing,
// streaming re-freeze cadence) and are fixed for the life of the Index.
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
	intraThreads int
	tiles        int
	scheme       ReuseScheme
	strategy     SchedStrategy
	minSeedSize  int
	disableReuse bool
	kind         IndexKind
	refreezeN    int
	work         *Work
	tracer       *Tracer
	progress     func(ProgressEvent)
}

func buildConfig[O Option](opts []O) config {
	c := config{
		ctx:      context.Background(),
		r:        dbscan.DefaultR,
		binWidth: dbscan.DefaultBinWidth,
		threads:  1,
		scheme:   ClusDensity,
		strategy: SchedEpsChain,
	}
	for _, o := range opts {
		o.apply(&c)
	}
	return c
}

// WithR sets the leaf occupancy r of the ε-search R-tree: the number of
// points indexed per minimum bounding box. Larger r trades extra candidate
// filtering for fewer memory accesses; the paper finds 70–110 good in
// degree-scaled TEC data (default 70).
func WithR(r int) IndexOption { return indexOpt(func(c *config) { c.r = r }) }

// WithBinWidth sets the width of the spatial sorting bins applied before
// indexing (default 1, the paper's unit-width bins).
func WithBinWidth(w float64) IndexOption { return indexOpt(func(c *config) { c.binWidth = w }) }

// IndexKind selects the ε-search substrate; see WithIndexKind.
type IndexKind = dbscan.IndexKind

// Index kinds accepted by WithIndexKind.
const (
	// IndexRTree is the paper's packed R-tree pair (the default): one
	// shared tree serves every variant's ε-searches, a second serves the
	// cluster-MBB sweeps that reuse depends on.
	IndexRTree = dbscan.IndexRTree
	// IndexGrid serves ε-searches from a flat uniform cell grid instead:
	// coordinates are grid-sorted into contiguous runs with one CSR
	// offset per cell, and a search scans the 3×3 cell block around the
	// query through the block distance kernel. The grid's cell side is
	// sized for the variant set's largest ε on first use, so — like the
	// R-tree — one build serves every variant; it wins when the data has
	// bounded density skew (uniform-ish cell occupancy) and loses ground
	// to the R-tree under heavy skew or very wide ε spreads. The first
	// link of an ε-chain (SchedEpsChain) runs the cell-major pass here.
	IndexGrid = dbscan.IndexGrid
)

// WithIndexKind selects the ε-search index structure (default
// IndexRTree). Cluster's output, and ClusterVariants' under the default
// SchedEpsChain, is byte-identical across kinds — only the search
// substrate, and therefore the performance envelope, changes.
func WithIndexKind(k IndexKind) IndexOption { return indexOpt(func(c *config) { c.kind = k }) }

// WithThreads sets the number of worker goroutines T executing variants
// concurrently (default 1). Above 1 it also enables two-level scheduling in
// ClusterVariants — workers left idle once the variant queue drains are
// donated to the running variants' intra-variant pools — and sets the auto
// intra-variant width for single-variant Cluster calls, so WithThreads(8)
// uses 8 cores whether you cluster one variant or eighty.
func WithThreads(t int) RunOption { return runOpt(func(c *config) { c.threads = t }) }

// WithIntraThreads sets the number of goroutines working *inside* one
// DBSCAN execution (intra-variant parallelism: chunked core-point marking
// plus disjoint-set cluster merging, label-identical to the sequential
// algorithm). It applies to Cluster and to ClusterVariants' from-scratch
// executions and ε-chain links; under a paper strategy, reuse-based
// executions are inherently ordered and stay sequential. 0 (the default)
// selects auto mode: Cluster falls back to WithThreads' value,
// ClusterVariants gives each from-scratch execution one worker plus
// whatever idle pool workers are donated. Set 1 to force the
// paper-faithful sequential execution everywhere. Note that
// WithThreads(T) × WithIntraThreads(n) can oversubscribe T·n goroutines;
// that is the caller's trade to make.
func WithIntraThreads(n int) RunOption { return runOpt(func(c *config) { c.intraThreads = n }) }

// WithTiles sets tile-level parallelism — the third level of the
// variant → tile → chunk hierarchy. On grid indexes
// (WithIndexKind(IndexGrid)), the cell grid is cut into roughly n
// point-balanced rectangular tiles and workers claim whole tiles; core
// flags and the union-find are shared by all tiles, so clusters that
// cross tile boundaries are linked like any others and labels are
// byte-identical to the untiled run at any tile count. 0 (the default) is
// auto mode: tile when the effective worker width and the point count
// justify it. 1 disables tiling. The option is silently a no-op where no
// grid serves the run — the R-tree index kind, or streaming inserts
// staged since the last re-freeze — which keeps it safe to set
// unconditionally.
func WithTiles(n int) RunOption { return runOpt(func(c *config) { c.tiles = n }) }

// WithReuseScheme selects the cluster-reuse prioritization of a paper
// strategy (default ClusDensity).
func WithReuseScheme(s ReuseScheme) RunOption { return runOpt(func(c *config) { c.scheme = s }) }

// WithStrategy selects the variant scheduling heuristic (default
// SchedEpsChain; the paper's heuristics are opt-in and run Alg. 3/4 on
// either kind).
func WithStrategy(s SchedStrategy) RunOption { return runOpt(func(c *config) { c.strategy = s }) }

// WithMinSeedSize excludes completed clusters smaller than n points from
// a paper strategy's reuse; their points are clustered from scratch
// instead. Sweeping a tiny cluster's MBB can cost more ε-searches than copying it saves (default 0:
// reuse every cluster).
func WithMinSeedSize(n int) RunOption { return runOpt(func(c *config) { c.minSeedSize = n }) }

// WithoutReuse forces every variant to cluster from scratch, keeping only
// the shared-index parallelism (the paper's scenario-S1 baseline).
func WithoutReuse() RunOption { return runOpt(func(c *config) { c.disableReuse = true }) }

// WithRefreezeThreshold sets the streaming re-freeze trigger for
// NewIncremental: once n mutations have been staged in the flat
// snapshot's delta overlay, the index is re-frozen in the background
// (n live points also trigger the first freeze). Smaller values keep
// ε-searches closer to the pure flat-scan cost at the price of more
// frequent compactions; 0 (the default) selects
// incremental.DefaultRefreezeThreshold. Ignored by NewIndex and batch
// clustering: an Index is frozen once, at construction, and never again.
func WithRefreezeThreshold(n int) IndexOption { return indexOpt(func(c *config) { c.refreezeN = n }) }

// WithWork records the run's accumulated work counters into w.
func WithWork(w *Work) SharedOption { return sharedOpt(func(c *config) { c.work = w }) }

// WithTracer attaches an execution tracer to Cluster or ClusterVariants.
// The tracer records structured span events at variant/phase granularity
// (never per ε-search), so the clustering output and the hot-path
// allocation behavior are identical with tracing on or off; a nil t is the
// same as not passing the option.
func WithTracer(t *Tracer) SharedOption { return sharedOpt(func(c *config) { c.tracer = t }) }

// WithProgress registers a live progress callback for ClusterVariants,
// invoked serially after each variant completes with the variants-done
// count and the running mean reuse fraction. The callback runs on worker
// goroutines — keep it fast and non-blocking.
func WithProgress(f func(ProgressEvent)) RunOption {
	return runOpt(func(c *config) { c.progress = f })
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

// NewIndex grid-sorts points and builds the shared R-trees in their frozen
// array-backed layout (WithR, WithBinWidth, WithIndexKind select it). The
// input slice is not retained or modified.
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

// R returns the ε-search tree's leaf occupancy.
func (x *Index) R() int { return x.ix.R() }

// Points returns the indexed points in the caller's original order.
func (x *Index) Points() []Point { return x.pts }

// Cluster runs a single DBSCAN variant and returns labels in the caller's
// point order. It honors WithContext (cancellation is checked coarsely,
// every ~1k points) and parallelizes across WithIntraThreads — or, in auto
// mode, WithThreads — goroutines; the result is identical at any width.
func (x *Index) Cluster(p Params, opts ...RunOption) (*Clustering, error) {
	c := buildConfig(opts)
	width := c.intraThreads
	if width == 0 {
		width = c.threads // auto: a single variant may use the whole pool
	}
	var m metrics.Counters
	var res *cluster.Result
	var err error
	// A traced single-variant run is a one-variant schedule: the same span
	// structure ClusterVariants emits, on worker 0, always from scratch.
	start := time.Now()
	c.tracer.StartRun(start, "single-variant", []string{p.String()})
	rec := c.tracer.Worker(0)
	rec.Event(obs.KindStarted, 0, 0, 0)
	// A grid-kind index takes the parallel runner at every width, one
	// thread included: its cell-major pass does a fraction of RunCtx's
	// work, and the work counters then read the same at any -threads.
	if width > 1 || c.tiles > 1 || x.ix.Kind == dbscan.IndexGrid {
		res, err = dbscan.RunParallelOpts(c.ctx, x.ix, p,
			dbscan.ParallelOptions{Workers: max(width, 1), Rec: rec, Tiles: c.tiles}, &m)
	} else {
		rec.PhaseBegin(0, obs.PhaseScratch)
		res, err = dbscan.RunCtx(c.ctx, x.ix, p, &m)
		rec.PhaseEnd(0, obs.PhaseScratch)
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	rec.Done(0, -1, 0, m.Snapshot())
	c.tracer.EndRun(time.Since(start))
	if c.progress != nil {
		el := time.Since(start)
		c.progress(ProgressEvent{Done: 1, Total: 1, Variant: 0, Source: -1,
			FromScratch: true, Duration: el, Elapsed: el})
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
	// FromScratch is true when the variant could not reuse any completed
	// variant and ran plain DBSCAN.
	FromScratch bool
	// FractionReused is the fraction of points copied from a completed
	// variant without an ε-neighborhood search; 1 for a variant that
	// inherited every search from its ε-chain predecessor.
	FractionReused float64
	// SourceIndex is the position (in the input params slice) of the
	// variant whose result was reused — the ε-chain predecessor under
	// SchedEpsChain — or -1.
	SourceIndex int
	// Worker identifies the pool worker that ran the variant.
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
	// Threads is the worker pool size used.
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

// ClusterVariants executes every parameter variant with VariantDBSCAN:
// variants run concurrently on WithThreads workers as ε-chains (see
// SchedEpsChain) or, under a paper strategy, reusing completed variants'
// clusters whenever the inclusion criteria allow.
func (x *Index) ClusterVariants(params []Params, opts ...RunOption) (*VariantRun, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("vdbscan: no variants given")
	}
	c := buildConfig(opts)
	var m metrics.Counters
	rr, err := sched.ExecuteContext(c.ctx, x.ix, variant.New(params), sched.Options{
		Threads:      c.threads,
		Strategy:     c.strategy,
		Scheme:       c.scheme,
		MinSeedSize:  c.minSeedSize,
		DisableReuse: c.disableReuse,
		IntraWorkers: c.intraThreads,
		Tiles:        c.tiles,
		DonateIdle:   c.threads > 1 || c.intraThreads > 1,
		Metrics:      &m,
		Tracer:       c.tracer,
		Progress:     c.progress,
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
			Clustering:     r.Result.Remap(x.ix.Fwd),
			FromScratch:    r.Stats.FromScratch,
			FractionReused: r.Stats.FractionReused,
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
