package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics every workload reports with tracing off, and the
// per-layer metrics every workload reports with tracing on. BENCHMARK.json
// at the repository root lists the same names; TestSpecMatchesBenchmarkJSON
// keeps the two from drifting.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 for
	// per-layer metrics, which carry no bound.
	Bound float64
	Help  string
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"sweep-s2", "paper S2 variant sweep, all defaults at one thread: core reuse, sched order and the R-tree search do the work; counters repeat exactly"},
	{"sweep-wide-par", "wide eps spread on the grid index at nproc threads: low reuse, variant-level parallelism and idle-worker donation; core/sched used the other way round"},
	{"scratch-512k", "one variant from scratch on 512Ki points (8 MiB of coordinates, 4x one core's L2), grid + tiling + parallel runner: no reuse and no scheduling"},
	{"serve-jobs", "closed-loop job bursts through vdbscan/client against an in-process vdbscand: admission, coalescing, dedup, label encode dominate; clustering is small"},
	{"serve-ingest", "write side of the service with a data dir: CSV upload, WAL appends across a re-freeze, restart (drained and un-drained) and first labels; eps-search does almost none of the work"},
}

// End-to-end metrics. Every workload reports all of them; what the
// "operation" is in each workload is fixed in README.md and in each
// workload's file:
//
//	sweep-s2, sweep-wide-par  one Index.ClusterVariants call (the makespan)
//	scratch-512k              one Index.Cluster call
//	serve-jobs                one job: Submit sent -> last label byte received
//	serve-ingest              one ingest cycle: upload + appends + restart + first labels
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "program set-up before the first timed operation (index build or server start + upload, plus one warm-up operation); median of the run's set-ups"},
	{"op_p50_ms", "ms", "lower", 0.25, "median wall time of the workload's operation"},
	{"throughput_per_s", "1/s", "higher", 0.25, "items completed per second of timed wall clock: variants, points, jobs, or points ingested"},
	{"work_units", "count", "lower", 0.10, "eps-searches + candidates examined per operation (the tenant ledger's billing unit); median"},
}

// Per-layer metrics, reported by the traced run. Three kinds:
//
//   - "*_share" metrics marked (trace) are a layer's self time on the
//     blocking path of the workload's own operations, as a share of their
//     end-to-end time; 0 means the layer is not on that workload's path.
//   - workload counters (core.*, sched.*, server.*) are read from the
//     program's existing observability during the same operations; 0 where
//     the workload does not exercise the layer.
//   - layer probes (kernel.*, dbscan.*, tiling.*, dataio.*, persist.*,
//     vdbscan.new_index_s) time direct calls into one layer's public
//     functions on the workload's own dataset and eps, so they are measured
//     in every workload.
var perLayer = []metricDef{
	{"kernel.filter_gbps", "GB/s", "higher", 0, "kernel.FilterEps over arrays >= 4x L2; computed bytes, 16 B per point scanned"},
	{"kernel.stream_gbps", "GB/s", "higher", 0, "the harness's own read-sum over the same arrays in the same run (the roofline)"},
	{"kernel.roofline_share", "ratio", "higher", 0, "filter_gbps / stream_gbps"},
	{"kernel.filter_ns_per_point_leaf", "ns", "lower", 0, "kernel.FilterEps on 70-point in-cache blocks, per point"},

	{"dbscan.build_rtree_s", "s", "lower", 0, "dbscan.BuildIndex, R-tree kind"},
	{"dbscan.build_grid_s", "s", "lower", 0, "dbscan.BuildIndex, grid kind"},
	{"dbscan.ensure_grid_s", "s", "lower", 0, "Index.EnsureGrid at the workload's largest eps"},
	{"dbscan.search_ns_rtree", "ns", "lower", 0, "one Index.NeighborSearch, R-tree kind, at the workload's eps"},
	{"dbscan.search_ns_grid", "ns", "lower", 0, "one Index.NeighborSearch, grid kind"},
	{"dbscan.candidates_per_search_rtree", "count", "lower", 0, "candidates examined per search"},
	{"dbscan.candidates_per_search_grid", "count", "lower", 0, "candidates examined per search"},
	{"dbscan.nodes_per_search_rtree", "count", "lower", 0, "index nodes visited per search"},
	{"dbscan.nodes_per_search_grid", "count", "lower", 0, "index cells visited per search"},
	{"dbscan.useful_candidate_share_rtree", "ratio", "higher", 0, "neighbours found / candidates examined"},
	{"dbscan.useful_candidate_share_grid", "ratio", "higher", 0, "neighbours found / candidates examined"},
	{"dbscan.run_seq_s", "s", "lower", 0, "dbscan.RunCtx of one variant, the plain single-thread baseline"},
	{"dbscan.run_par_s", "s", "lower", 0, "dbscan.RunParallelOpts of the same variant at nproc workers, untiled"},
	{"dbscan.par_speedup", "ratio", "higher", 0, "run_seq_s / run_par_s"},
	{"dbscan.phase_mark_s", "s", "lower", 0, "mark phase of the run_par probe (existing tracer phase)"},
	{"dbscan.phase_link_s", "s", "lower", 0, "link phase"},
	{"dbscan.phase_label_s", "s", "lower", 0, "label phase"},
	{"dbscan.phase_border_s", "s", "lower", 0, "border phase"},
	{"dbscan.run_share", "ratio", "lower", 0, "(trace) mark+link+label+border self time"},

	{"tiling.partition_s", "s", "lower", 0, "Index.TilePartition (tiling.Build) on a fresh grid"},
	{"tiling.tiles", "count", "higher", 0, "tiles cut by the probe"},
	{"tiling.max_tile_share", "ratio", "lower", 0, "largest tile's points / all points"},
	{"tiling.tile_run_s", "s", "lower", 0, "tile-run phase of a tiled RunParallelOpts probe"},
	{"tiling.tile_merge_s", "s", "lower", 0, "tile-merge phase of the same probe"},
	{"tiling.run_share", "ratio", "lower", 0, "(trace) tile-run + tile-merge self time"},

	{"core.expand_share", "ratio", "lower", 0, "(trace) seed-cluster expansion"},
	{"core.scratch_share", "ratio", "lower", 0, "(trace) from-scratch remainder / whole from-scratch variants"},
	{"core.searches", "count", "lower", 0, "eps-searches per operation"},
	{"core.searches_avoided_share", "ratio", "higher", 0, "1 - searches / (n * |V|)"},
	{"core.reused_share", "ratio", "higher", 0, "mean fraction of points reused per variant"},
	{"core.clusters_destroyed", "count", "lower", 0, "seed clusters invalidated during reuse, per operation"},
	{"core.min_quality", "ratio", "higher", 0, "minimum Jaccard quality of the sampled variants against the reference"},

	{"sched.self_share", "ratio", "lower", 0, "(trace) run and variant spans not covered by a phase: queueing, seed selection, idle workers"},
	{"sched.idle_share", "ratio", "lower", 0, "1 - TotalWork / (Threads * Makespan)"},
	{"sched.scratch_share", "ratio", "lower", 0, "share of variants that ran from scratch"},

	{"vdbscan.new_index_s", "s", "lower", 0, "vdbscan.NewIndex with default options"},
	{"vdbscan.facade_share", "ratio", "lower", 0, "(trace) facade call minus the scheduler's makespan: option handling and label remap"},

	{"dataio.read_csv_mbps", "MB/s", "higher", 0, "dataio.ReadCSV of the workload's dataset"},
	{"dataio.write_labels_mbps", "MB/s", "higher", 0, "dataio.WriteLabelsCSV of one clustering"},

	{"persist.save_s", "s", "lower", 0, "Index.SaveSnapshot (write + fsync + rename)"},
	{"persist.load_s", "s", "lower", 0, "vdbscan.LoadSnapshot (mmap + validation)"},
	{"persist.snapshot_bytes_per_point", "B", "lower", 0, "snapshot size / points"},
	{"persist.wal_append_ms", "ms", "lower", 0, "persist.WAL.Append of 256 points (fsync'd)"},
	{"persist.wal_replay_s", "s", "lower", 0, "persist.ReplayWAL of 64 such records"},
	{"persist.disk_bytes_per_point", "B", "lower", 0, "bytes under the data dir / points stored (serve-ingest)"},

	{"server.queue_share", "ratio", "lower", 0, "(trace) admission -> batch start: coalesce window + runner wait"},
	{"server.run_share", "ratio", "lower", 0, "(trace) batch run (one ClusterVariants over the union)"},
	{"server.restore_share", "ratio", "lower", 0, "(trace) server.New on a populated data dir -> datasets listed"},
	{"server.jobs_per_batch", "count", "higher", 0, "jobs completed / batches run (/metrics)"},
	{"server.dedup_share", "ratio", "higher", 0, "1 - union variants run / variants requested (/metrics)"},
	{"server.rejected", "count", "lower", 0, "jobs refused with 429 (/metrics)"},
	{"server.refreezes", "count", "lower", 0, "background re-freezes installed (/metrics)"},

	{"client.submit_share", "ratio", "lower", 0, "(trace) client.Submit round trip"},
	{"client.wait_share", "ratio", "lower", 0, "(trace) results ready -> client.Wait returns"},
	{"client.serial_share", "ratio", "lower", 0, "(trace) results ready but the closed-loop client still busy with an earlier job of its burst"},

	{"trace.unaccounted_share", "ratio", "lower", 0, "end-to-end time covered by no layer span: the untraced layer to go find. The three round trips below are its known parts"},
	{"trace.upload_share", "ratio", "lower", 0, "(trace) client.UploadCSV round trip; CSV decode, index build and snapshot inside it are not spanned from outside"},
	{"trace.append_share", "ratio", "lower", 0, "(trace) client.AppendCSV round trips; CSV decode and WAL fsync inside them are not spanned"},
	{"trace.labels_share", "ratio", "lower", 0, "(trace) client.Labels round trips; label encode inside them is not spanned"},
	{"trace.op_p90_ms", "ms", "lower", 0, "90th percentile of the operation's wall time over the traced run's untraced windows; not an end-to-end metric because no tail of 20-60 samples is steady on a shared 2-core host"},
	{"obs.trace_overhead_share", "ratio", "lower", 0, "(traced - untraced) / untraced median operation time, same process"},

	{"runtime.peak_rss_mb", "MB", "lower", 0, "VmHWM of the workload's own process"},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0, "heap bytes allocated per operation"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "total GC pause during the timed operations"},
	{"runtime.gc_cpu_share", "ratio", "lower", 0, "GC CPU fraction since process start"},
}

// userMetric is one end-to-end number under the name its user knows it by.
type userMetric struct {
	metricDef
	// Exact marks a count that repeats exactly for one seed: -selfcheck
	// fails on any difference between two runs of the same code.
	Exact bool
}

// userMetrics are the end-to-end metrics per workload, each with a bound of
// its own. The benchmark runner cannot read them — it wants one list that
// every workload reports, hence the four generic metrics above — so these
// are what -workload all records in results.json and what -compare and
// -selfcheck gate: a restore that got twice as slow regresses restore_s
// here even though the ingest cycle it is a twentieth of stays inside the
// runner's bound. Every untraced run prints them as "name unit value".
// A bound of 0 means any worsening is a regression.
var userMetrics = map[string][]userMetric{
	"sweep-s2": {
		{metricDef{"setup_s", "s", "lower", 0.15, "NewIndex + one warm-up sweep"}, false},
		{metricDef{"makespan_s", "s", "lower", 0.10, "wall clock of one Index.ClusterVariants call, labels remapped to caller order; median"}, false},
		{metricDef{"variants_per_s", "1/s", "higher", 0.10, "variants completed per second of timed wall clock"}, false},
		{metricDef{"work_units", "count", "lower", 0.02, "eps-searches + candidates examined per sweep"}, true},
	},
	"sweep-wide-par": {
		{metricDef{"setup_s", "s", "lower", 0.15, "NewIndex(grid) + one warm-up sweep"}, false},
		{metricDef{"makespan_s", "s", "lower", 0.10, "as on sweep-s2"}, false},
		{metricDef{"variants_per_s", "1/s", "higher", 0.10, "as on sweep-s2"}, false},
	},
	"scratch-512k": {
		{metricDef{"setup_s", "s", "lower", 0.15, "NewIndex(grid) + one warm-up call (grid sizing, tile partition)"}, false},
		{metricDef{"cluster_s", "s", "lower", 0.10, "wall clock of one Index.Cluster call; median"}, false},
		{metricDef{"points_per_s", "1/s", "higher", 0.10, "points clustered per second of timed wall clock"}, false},
		{metricDef{"work_units", "count", "lower", 0.02, "eps-searches + candidates examined per call"}, true},
	},
	"serve-jobs": {
		{metricDef{"setup_s", "s", "lower", 0.15, "server start + upload + one warm-up burst"}, false},
		{metricDef{"job_latency_p50_ms", "ms", "lower", 0.10, "client.Submit sent -> last label byte of the job's last variant received"}, false},
		{metricDef{"job_latency_p90_ms", "ms", "lower", 0.10, "the same, 90th percentile; a run times some 400 jobs"}, false},
		{metricDef{"jobs_per_s", "1/s", "higher", 0.10, "jobs completed / wall clock of the closed loop"}, false},
	},
	"serve-ingest": {
		{metricDef{"setup_s", "s", "lower", 0.15, "server start + resident uploads + one warm-up cycle"}, false},
		{metricDef{"upload_p50_ms", "ms", "lower", 0.10, "client.UploadCSV -> 201 (durable snapshot written)"}, false},
		{metricDef{"append_p50_ms", "ms", "lower", 0.10, "client.AppendCSV of 256 points -> 200 (WAL fsync'd)"}, false},
		{metricDef{"restore_s", "s", "lower", 0.10, "server.New on the populated data dir -> all datasets listed"}, false},
		{metricDef{"first_labels_ms", "ms", "lower", 0.10, "after a restore: submit one variant -> labels received"}, false},
		{metricDef{"disk_bytes_per_point", "B", "lower", 0, "bytes under the data dir / points stored; 16 B of it is the user's data"}, true},
	},
}

// exactCounters are per-layer metrics that must repeat exactly between two
// traced runs of the same code with the same seed; -selfcheck fails on any
// difference.
var exactCounters = map[string][]string{
	"sweep-s2":     {"core.searches", "core.clusters_destroyed", "core.reused_share"},
	"scratch-512k": {"core.searches"},
	"serve-ingest": {"persist.snapshot_bytes_per_point", "persist.disk_bytes_per_point"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runSeconds is how long one run measures. With its five set-ups, the
// references and the output checks a run takes 17 to 29 s on the reference
// box, which keeps the runner's 4 + 22 x 5 runs inside its 57 minutes.
const runSeconds = 15
