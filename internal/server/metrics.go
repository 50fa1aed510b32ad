package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"vdbscan"
	"vdbscan/internal/obs/prom"
)

// serverMetrics is the service's Prometheus exposition: the flat monotonic
// counters the server always had (now func-collected from the same
// atomics), labeled counters for the SSE plane, and the latency/work
// *distributions* the paper's throughput story actually rests on — queue
// wait, batch and per-variant run time, refreeze time,
// and per-variant ε-search work, each labeled by dataset.
//
// Histogram observation is lock-free (see internal/obs/prom); the handles
// resolved per batch run are cached for the run, so instrumentation costs
// one map lookup per batch plus one Observe per event at job/variant
// granularity — never per ε-search.
type serverMetrics struct {
	reg *prom.Registry

	// Distributions over {dataset}.
	queueWait     *prom.Vec // vdbscand_job_queue_wait_seconds
	batchRun      *prom.Vec // vdbscand_batch_run_seconds
	variantRun    *prom.Vec // vdbscand_variant_run_seconds
	refreezeDur   *prom.Vec // vdbscand_dataset_refreeze_seconds
	epsSearches   *prom.Vec // vdbscand_variant_eps_searches
	candPerSearch *prom.Vec // vdbscand_variant_eps_candidates_per_search
	snapshotWrite *prom.Vec // vdbscand_snapshot_write_seconds
	snapshotLoad  *prom.Vec // vdbscand_snapshot_load_seconds
	walReplay     *prom.Vec // vdbscand_wal_replay_seconds

	// SSE broker counters.
	sseFrames  *prom.Vec // vdbscand_sse_frames_total{event}
	sseDropped *prom.Vec // vdbscand_sse_dropped_frames_total
	sseSubs    atomic.Int64

	// Multi-tenancy counters, all labeled by tenant so per-tenant usage
	// and throttling are scrapeable series.
	tenantWork     *prom.Vec // vdbscand_tenant_work_charged_total{tenant}
	tenantSearches *prom.Vec // vdbscand_tenant_eps_searches_total{tenant}
	tenantJobs     *prom.Vec // vdbscand_tenant_jobs_charged_total{tenant}
	tenantRejected *prom.Vec // vdbscand_tenant_rejected_total{tenant,reason}
	jobsEvicted    *prom.Vec // vdbscand_jobs_evicted_total{tenant}

	scrapes atomic.Int64
}

// batchObserver is the per-run bundle of resolved histogram children: one
// label lookup per family per batch, then lock-free Observe calls.
type batchObserver struct {
	queueWait, batchRun, variantRun *prom.Metric
	epsSearches, candPerSearch      *prom.Metric
}

func (m *serverMetrics) batchObserver(dataset string) batchObserver {
	return batchObserver{
		queueWait:     m.queueWait.With(dataset),
		batchRun:      m.batchRun.With(dataset),
		variantRun:    m.variantRun.With(dataset),
		epsSearches:   m.epsSearches.With(dataset),
		candPerSearch: m.candPerSearch.With(dataset),
	}
}

// workBuckets scales ε-search counts: one variant can do anywhere from a
// handful to tens of millions of searches depending on dataset size and
// reuse, so the buckets are decade-ish exponential.
var workBuckets = prom.ExpBuckets(100, 4, 10) // 100 .. ~26M

// ratioBuckets cover candidates-per-search: 1 (perfect filtering) up to
// thousands (degenerate leaf scans).
var ratioBuckets = prom.ExpBuckets(1, 2, 12) // 1 .. 2048

// newServerMetrics builds the registry over the server's live state. The
// flat counter names predate this registry and are kept verbatim so
// existing scrapes and greps survive the exposition upgrade.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{reg: prom.NewRegistry()}
	r := m.reg

	counterFunc := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counterFunc("vdbscand_jobs_accepted_total", "Jobs admitted to the queue.", &s.ctrs.jobsAccepted)
	counterFunc("vdbscand_jobs_rejected_total", "Jobs rejected with 429 (queue full).", &s.ctrs.jobsRejected)
	counterFunc("vdbscand_jobs_completed_total", "Jobs finished successfully.", &s.ctrs.jobsCompleted)
	counterFunc("vdbscand_jobs_failed_total", "Jobs that failed (run error or deadline).", &s.ctrs.jobsFailed)
	counterFunc("vdbscand_jobs_canceled_total", "Jobs canceled by the client.", &s.ctrs.jobsCanceled)
	counterFunc("vdbscand_jobs_coalesced_total", "Jobs that shared their batch with another job.", &s.ctrs.jobsCoalesced)
	counterFunc("vdbscand_batches_run_total", "ClusterVariants batch runs executed.", &s.ctrs.batchesRun)
	counterFunc("vdbscand_variants_run_total", "Union variants executed across all batches.", &s.ctrs.variantsRun)
	counterFunc("vdbscand_variants_replayed_total", "Union variants whose eps-chain replayed their dataset's Links library instead of searching.", &s.ctrs.variantsReplayed)
	counterFunc("vdbscand_dataset_refreezes_total", "Background dataset re-freezes installed.", &s.ctrs.refreezes)
	counterFunc("vdbscand_datasets_created_total", "Datasets ever created.", &s.ctrs.datasets)

	r.GaugeFunc("vdbscand_datasets_live", "Datasets currently registered.",
		func() float64 { return float64(s.registry.len()) })
	r.GaugeFunc("vdbscand_queue_depth", "Admitted jobs whose batch has not started running.",
		func() float64 { return float64(s.queueDepth()) })
	// Float seconds: the int truncation the old exposition had made uptime
	// read 0 for the whole first second, which is most of a smoke test.
	r.GaugeFunc("vdbscand_uptime_seconds", "Seconds since the server started (sub-second resolution).",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("vdbscand_start_time_seconds", "Unix time the server started, in seconds.",
		func() float64 { return float64(s.start.UnixNano()) / 1e9 })

	labels := []string{"dataset"}
	m.queueWait = r.Histogram("vdbscand_job_queue_wait_seconds",
		"Time a job spent between admission and its batch starting to run.",
		prom.DurationBuckets, labels...)
	m.batchRun = r.Histogram("vdbscand_batch_run_seconds",
		"Wall-clock duration of one ClusterVariants batch run.",
		prom.DurationBuckets, labels...)
	m.variantRun = r.Histogram("vdbscand_variant_run_seconds",
		"Response time of one variant inside a batch run.",
		prom.DurationBuckets, labels...)
	m.refreezeDur = r.Histogram("vdbscand_dataset_refreeze_seconds",
		"Duration of one background dataset re-freeze (index rebuild).",
		prom.DurationBuckets, labels...)
	m.epsSearches = r.Histogram("vdbscand_variant_eps_searches",
		"Eps-neighborhood searches performed by one variant execution.",
		workBuckets, labels...)
	m.candPerSearch = r.Histogram("vdbscand_variant_eps_candidates_per_search",
		"Mean candidates examined per eps-search in one variant execution.",
		ratioBuckets, labels...)
	m.snapshotWrite = r.Histogram("vdbscand_snapshot_write_seconds",
		"Duration of one durable dataset snapshot write (upload or re-freeze).",
		prom.DurationBuckets, labels...)
	m.snapshotLoad = r.Histogram("vdbscand_snapshot_load_seconds",
		"Duration of one snapshot load (mmap + validation) at startup.",
		prom.DurationBuckets, labels...)
	m.walReplay = r.Histogram("vdbscand_wal_replay_seconds",
		"Duration of one dataset's WAL backlog replay at startup.",
		prom.DurationBuckets, labels...)

	m.tenantWork = r.Counter("vdbscand_tenant_work_charged_total",
		"Work units (eps-searches + candidates examined) charged to each tenant's quota ledger.", "tenant")
	m.tenantSearches = r.Counter("vdbscand_tenant_eps_searches_total",
		"Eps-neighborhood searches metered to each tenant's finished jobs.", "tenant")
	m.tenantJobs = r.Counter("vdbscand_tenant_jobs_charged_total",
		"Finished jobs charged to each tenant's quota ledger.", "tenant")
	m.tenantRejected = r.Counter("vdbscand_tenant_rejected_total",
		"Requests rejected per tenant, by reason (rate, quota, concurrency, queue).", "tenant", "reason")
	m.jobsEvicted = r.Counter("vdbscand_jobs_evicted_total",
		"Finished jobs reclaimed by the TTL eviction sweeper.", "tenant")

	m.sseFrames = r.Counter("vdbscand_sse_frames_total",
		"SSE frames published to job event streams, by frame event type.", "event")
	m.sseDropped = r.Counter("vdbscand_sse_dropped_frames_total",
		"SSE frames dropped because a subscriber's buffer was full (drop-oldest).")
	r.GaugeFunc("vdbscand_sse_subscribers", "Live SSE subscribers across all job streams.",
		func() float64 { return float64(m.sseSubs.Load()) })
	r.CounterFunc("vdbscand_metrics_scrapes_total", "Scrapes of this endpoint.",
		func() float64 { return float64(m.scrapes.Load()) })

	// The accumulated vdbscan work counters, same names as before.
	workFunc := func(name, help string, pick func(w workSnap) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(pick(workSnap{s})) })
	}
	workFunc("vdbscan_neighbor_searches_total", "Eps-neighborhood searches across all runs.",
		func(w workSnap) int64 { return w.get().NeighborSearches })
	workFunc("vdbscan_candidates_examined_total", "Candidate points filtered across all runs.",
		func(w workSnap) int64 { return w.get().CandidatesExamined })
	workFunc("vdbscan_neighbors_found_total", "Neighbors found across all runs.",
		func(w workSnap) int64 { return w.get().NeighborsFound })
	workFunc("vdbscan_nodes_visited_total", "Index nodes visited across all runs.",
		func(w workSnap) int64 { return w.get().NodesVisited })
	workFunc("vdbscan_points_reused_total", "Points reused from completed variants.",
		func(w workSnap) int64 { return w.get().PointsReused })
	workFunc("vdbscan_clusters_reused_total", "Clusters reused from completed variants.",
		func(w workSnap) int64 { return w.get().ClustersReused })
	workFunc("vdbscan_clusters_destroyed_total", "Reused clusters destroyed by re-expansion.",
		func(w workSnap) int64 { return w.get().ClustersDestroyed })
	return m
}

// workSnap defers the work mutex to render time, once per scrape (not once
// per counter: the snapshot is cheap, but seven locks per scrape is silly).
// Each scrape is one Write call on one goroutine, so a plain cache is safe.
type workSnap struct{ s *Server }

func (w workSnap) get() vdbscan.Work { return w.s.workSnapshot() }

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mx.scrapes.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mx.reg.Write(w) //nolint:errcheck // client gone; nothing to do
}
