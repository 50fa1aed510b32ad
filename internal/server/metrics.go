package server

import (
	"net/http"
	"time"

	"vdbscan"
	"vdbscan/internal/obs/prom"
)

// serverMetrics is the service's Prometheus exposition and its only
// counter store: the flat monotonic counters the server always had, the
// accumulated vdbscan work totals, labeled counters for the SSE and tenant
// planes, and the latency/work *distributions* the paper's throughput story
// actually rests on — queue wait, batch and per-variant run time, refreeze
// time, and per-variant ε-search work, each labeled by dataset.
//
// Histogram observation is lock-free (see internal/obs/prom); the handles
// resolved per batch run are cached for the run, so instrumentation costs
// one map lookup per batch plus one Observe per event at job/variant
// granularity — never per ε-search. Unlabeled families resolve their one
// child at registration, so a fresh scrape reads each of them as 0.
type serverMetrics struct {
	reg *prom.Registry

	// Flat server counters (vdbscand_<name>_total).
	jobsAccepted, jobsRejected, jobsCompleted *prom.Metric
	jobsFailed, jobsCanceled, jobsCoalesced   *prom.Metric
	batchesRun, variantsRun, variantsReplayed *prom.Metric
	refreezes, datasets                       *prom.Metric

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

	// SSE broker.
	sseFrames  *prom.Vec    // vdbscand_sse_frames_total{event}
	sseDropped *prom.Metric // vdbscand_sse_dropped_frames_total
	sseSubs    *prom.Metric // vdbscand_sse_subscribers (gauge)

	// Multi-tenancy counters, all labeled by tenant so per-tenant usage
	// and throttling are scrapeable series.
	tenantWork     *prom.Vec // vdbscand_tenant_work_charged_total{tenant}
	tenantSearches *prom.Vec // vdbscand_tenant_eps_searches_total{tenant}
	tenantJobs     *prom.Vec // vdbscand_tenant_jobs_charged_total{tenant}
	tenantRejected *prom.Vec // vdbscand_tenant_rejected_total{tenant,reason}
	jobsEvicted    *prom.Vec // vdbscand_jobs_evicted_total{tenant}

	scrapes *prom.Metric // vdbscand_metrics_scrapes_total

	// vdbscan work totals across all batch runs (vdbscan_<name>_total).
	neighborSearches, candidatesExamined, neighborsFound *prom.Metric
	nodesVisited, pointsReused                           *prom.Metric
	clustersReused, clustersDestroyed                    *prom.Metric
}

// addBatchWork adds one batch run's work to the vdbscan_*_total counters.
func (m *serverMetrics) addBatchWork(w vdbscan.Work) {
	m.neighborSearches.Add(float64(w.NeighborSearches))
	m.candidatesExamined.Add(float64(w.CandidatesExamined))
	m.neighborsFound.Add(float64(w.NeighborsFound))
	m.nodesVisited.Add(float64(w.NodesVisited))
	m.pointsReused.Add(float64(w.PointsReused))
	m.clustersReused.Add(float64(w.ClustersReused))
	m.clustersDestroyed.Add(float64(w.ClustersDestroyed))
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

	counter := func(name, help string) *prom.Metric { return r.Counter(name, help).With() }
	m.jobsAccepted = counter("vdbscand_jobs_accepted_total", "Jobs admitted to the queue.")
	m.jobsRejected = counter("vdbscand_jobs_rejected_total", "Jobs rejected with 429 (queue full).")
	m.jobsCompleted = counter("vdbscand_jobs_completed_total", "Jobs finished successfully.")
	m.jobsFailed = counter("vdbscand_jobs_failed_total", "Jobs that failed (run error or deadline).")
	m.jobsCanceled = counter("vdbscand_jobs_canceled_total", "Jobs canceled by the client.")
	m.jobsCoalesced = counter("vdbscand_jobs_coalesced_total", "Jobs that shared their batch with another job.")
	m.batchesRun = counter("vdbscand_batches_run_total", "ClusterVariants batch runs executed.")
	m.variantsRun = counter("vdbscand_variants_run_total", "Union variants executed across all batches.")
	m.variantsReplayed = counter("vdbscand_variants_replayed_total", "Union variants whose eps-chain replayed their dataset's Links library instead of searching.")
	m.refreezes = counter("vdbscand_dataset_refreezes_total", "Background dataset re-freezes installed.")
	m.datasets = counter("vdbscand_datasets_created_total", "Datasets ever created.")

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
	m.sseDropped = counter("vdbscand_sse_dropped_frames_total",
		"SSE frames dropped because a subscriber's buffer was full (drop-oldest).")
	m.sseSubs = r.Gauge("vdbscand_sse_subscribers", "Live SSE subscribers across all job streams.").With()
	m.scrapes = counter("vdbscand_metrics_scrapes_total", "Scrapes of this endpoint.")

	// The accumulated vdbscan work counters, same names as before.
	m.neighborSearches = counter("vdbscan_neighbor_searches_total", "Eps-neighborhood searches across all runs.")
	m.candidatesExamined = counter("vdbscan_candidates_examined_total", "Candidate points filtered across all runs.")
	m.neighborsFound = counter("vdbscan_neighbors_found_total", "Neighbors found across all runs.")
	m.nodesVisited = counter("vdbscan_nodes_visited_total", "Index nodes visited across all runs.")
	m.pointsReused = counter("vdbscan_points_reused_total", "Points reused from completed variants.")
	m.clustersReused = counter("vdbscan_clusters_reused_total", "Clusters reused from completed variants.")
	m.clustersDestroyed = counter("vdbscan_clusters_destroyed_total", "Reused clusters destroyed by re-expansion.")
	return m
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mx.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.mx.reg.Write(w) //nolint:errcheck // client gone; nothing to do
}
