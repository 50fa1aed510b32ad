package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"vdbscan"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload    string
	Seed        int64
	Seconds     float64
	Trace       bool
	WriteGolden bool
	// Scale shrinks every dataset (0 < Scale <= 1); 1 is the benchmark. The
	// tests run the same code at a few thousand points.
	Scale float64
	// Log receives the human-readable lines (metric lines, layer table).
	Log io.Writer
}

func (c runConfig) points(n int) int {
	// Below about 5000 points the reused variants' Jaccard quality drops
	// under the paper's 0.998 (0.982 at 2000), so that is the floor.
	return max(int(float64(n)*c.Scale), 5000)
}

func (c runConfig) qualityFloor() float64 {
	if c.Scale < 1 {
		return minQualitySmoke
	}
	return minQuality
}

// workload is what the runner needs from each of the five workloads.
type workload interface {
	// prepare makes the inputs from the seed and the references the output
	// check compares against. Harness work: outside set-up and outside the
	// timed region.
	prepare(cfg runConfig) error
	// setUp brings the program from "inputs in memory" to "ready for the
	// first timed operation", including one warm-up operation. This is what
	// setup_s times, so work a change moves out of the operation and into
	// index build, server start or upload shows there.
	setUp() error
	// tearDown releases what setUp built, so setUp can run again.
	tearDown()
	// measure runs timed operations back to back for d (at least one) and
	// checks each one's output outside its timed interval. tr is nil on the
	// untraced run.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	// probeInput is the dataset and parameters the layer probes run on.
	probeInput() probeInput
}

// measurement is what one measure call observed.
type measurement struct {
	OpMS      []float64 // wall time of each operation
	Work      []float64 // work units of each operation
	Items     float64   // throughput numerator
	Wall      time.Duration
	Attempted int
	Failed    int
	Failures  []string
	// Layer holds per-operation samples of the workload's counters, keyed
	// by per-layer metric name; the report takes medians.
	Layer map[string][]float64
}

func newMeasurement() *measurement { return &measurement{Layer: map[string][]float64{}} }

// failOp counts one failed operation, whatever number of its checks failed,
// and keeps the first few reasons for the report.
func (m *measurement) failOp(reasons ...string) {
	m.Failed++
	for _, r := range reasons {
		if len(m.Failures) < 8 {
			m.Failures = append(m.Failures, r)
		}
	}
}

// merge appends o's samples and counts to m.
func (m *measurement) merge(o *measurement) {
	m.OpMS = append(m.OpMS, o.OpMS...)
	m.Work = append(m.Work, o.Work...)
	m.Items += o.Items
	m.Wall += o.Wall
	m.Attempted += o.Attempted
	m.Failed += o.Failed
	m.Failures = append(m.Failures, o.Failures...)
	for k, v := range o.Layer {
		m.Layer[k] = append(m.Layer[k], v...)
	}
}

func (m *measurement) sample(name string, v float64) { m.Layer[name] = append(m.Layer[name], v) }

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	np := runtime.GOMAXPROCS(0)
	switch name {
	case "sweep-s2":
		// The paper's S2: eps in {0.2, 0.4, 0.6} x minpts 4..32, every
		// option at its default.
		return &libWorkload{name: name, n: 20_000, kind: vdbscan.IndexRTree, threads: 1,
			eps: []float64{0.2, 0.4, 0.6}, minpts: []int{4, 8, 12, 16, 20, 24, 28, 32}}, nil
	case "sweep-wide-par":
		return &libWorkload{name: name, n: 20_000, kind: vdbscan.IndexGrid, threads: np,
			eps: []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.8}, minpts: []int{4, 8, 16}}, nil
	case "scratch-512k":
		// 512Ki points: 8 MiB of coordinates, 4x the 2 MiB L2 of one core of
		// the reference box.
		return &libWorkload{name: name, n: 512 << 10, kind: vdbscan.IndexGrid, threads: np, single: true,
			eps: []float64{0.4}, minpts: []int{4}}, nil
	case "serve-jobs":
		return &jobsWorkload{clients: np}, nil
	case "serve-ingest":
		return &ingestWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// runWorkload executes one contract invocation and returns the result
// object. Metric lines and tables go to cfg.Log.
func runWorkload(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	began := time.Now()
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.Workload, err)
	}
	fmt.Fprintf(cfg.Log, "# %s seed %d: inputs and references ready in %.2f s\n", cfg.Workload, cfg.Seed, time.Since(began).Seconds())
	if cfg.Trace {
		return runTraced(cfg, w)
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.tearDown()
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	m, err := w.measure(time.Duration(cfg.Seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res := &result{Attempted: m.Attempted, Failed: m.Failed, Correct: m.Failed == 0 && m.Attempted > 0,
		Metrics: map[string]value{
			"setup_s":          {finite(median(setups)), "s"},
			"op_p50_ms":        {finite(median(m.OpMS)), "ms"},
			"throughput_per_s": {finite(m.Items / m.Wall.Seconds()), "1/s"},
			"work_units":       {finite(median(m.Work)), "count"},
		}}
	if tail := tailPercentile(len(m.OpMS)); tail > 50 {
		fmt.Fprintf(cfg.Log, "# %s: %d operations timed; the highest percentile with ten samples beyond it is p%g = %.3f ms\n",
			cfg.Workload, len(m.OpMS), tail, percentile(m.OpMS, tail))
	} else {
		fmt.Fprintf(cfg.Log, "# %s: %d operations timed; too few for any percentile above the median\n", cfg.Workload, len(m.OpMS))
	}
	fmt.Fprintf(cfg.Log, "# op_ms samples in order:")
	for _, v := range m.OpMS {
		fmt.Fprintf(cfg.Log, " %.1f", v)
	}
	fmt.Fprintln(cfg.Log)
	report(cfg, endToEnd, res, m)
	// The same run under the names each workload's users know it by.
	user := userValues(cfg.Workload, m, median(setups))
	for _, d := range userMetrics[cfg.Workload] {
		if _, generic := findMetric(endToEnd, d.Name); !generic {
			fmt.Fprintf(cfg.Log, "%s %s %v\n", d.Name, d.Unit, finite(user[d.Name]))
		}
	}
	return res, nil
}

// userValues derives a workload's userMetrics from one measurement.
func userValues(workload string, m *measurement, setupS float64) map[string]float64 {
	op, rate := median(m.OpMS), m.Items/m.Wall.Seconds()
	v := map[string]float64{"setup_s": setupS, "work_units": median(m.Work)}
	switch workload {
	case "sweep-s2", "sweep-wide-par":
		v["makespan_s"], v["variants_per_s"] = op/1000, rate
	case "scratch-512k":
		v["cluster_s"], v["points_per_s"] = op/1000, rate
	case "serve-jobs":
		v["job_latency_p50_ms"], v["job_latency_p90_ms"], v["jobs_per_s"] = op, percentile(m.OpMS, 90), rate
	case "serve-ingest":
		for _, part := range []string{"upload_p50_ms", "append_p50_ms", "first_labels_ms"} {
			v[part] = median(m.Layer[part])
		}
		v["restore_s"] = median(m.Layer["restore_ms"]) / 1000
		v["disk_bytes_per_point"] = median(m.Layer["persist.disk_bytes_per_point"])
	}
	return v
}

// finite maps NaN and the infinities — the median of no samples, a rate over
// no time — to 0, which the result line can carry and a reader can see.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// runTraced is the --trace 1 run: the same operations once with spans off
// and once with spans on, in one process, then the layer probes. It reports
// the per-layer metrics and writes out/<workload>.trace.json.
func runTraced(cfg runConfig, w workload) (*result, error) {
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	// Untraced and traced windows alternate, so warm-up, heap growth and
	// frequency drift fall on both sides alike and the difference between
	// the two medians is the tracing overhead. Eight windows of a twelfth of
	// the run each; the probes take the remaining third.
	const rounds = 4
	window := time.Duration(cfg.Seconds * float64(time.Second) / (3 * rounds))
	plain, traced, tr := newMeasurement(), newMeasurement(), newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for round := 0; round < rounds; round++ {
		for _, side := range []struct {
			into *measurement
			tr   *tracer
		}{{plain, nil}, {traced, tr}} {
			m, err := w.measure(window, side.tr)
			if err != nil {
				w.tearDown()
				return nil, fmt.Errorf("%s: traced run: %w", cfg.Workload, err)
			}
			side.into.merge(m)
		}
	}
	runtime.ReadMemStats(&ms1)
	w.tearDown()

	vals := map[string]float64{}
	for name, s := range traced.Layer {
		vals[name] = median(s)
	}
	if q := traced.Layer["core.min_quality"]; len(q) > 0 {
		vals["core.min_quality"] = slices.Min(q) // the floor is the claim, not the typical score
	}
	a := attribute(tr.snapshot())
	a.writeTable(cfg.Log, cfg.Workload, traced.Attempted)
	for metric, prefixes := range shareMetrics {
		vals[metric] = a.share(prefixes...)
	}
	vals["trace.op_p90_ms"] = percentile(plain.OpMS, 90)
	vals["obs.trace_overhead_share"] = (median(traced.OpMS) - median(plain.OpMS)) / median(plain.OpMS)
	ops := float64(plain.Attempted + traced.Attempted)
	vals["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / ops
	vals["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	vals["runtime.gc_cpu_share"] = ms1.GCCPUFraction

	if err := runProbes(w.probeInput(), vals, cfg.Log, cfg.Scale); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", cfg.Workload, err)
	}
	// After the probes, so the high-water mark is the whole process's.
	vals["runtime.peak_rss_mb"] = float64(procKB("/proc/self/status", "VmHWM")) / 1024

	res := &result{Attempted: plain.Attempted + traced.Attempted, Failed: plain.Failed + traced.Failed,
		Metrics: map[string]value{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{finite(vals[d.Name]), d.Unit}
	}
	// Layers that sum to more than the end-to-end time mean the harness
	// drew a span wrong; that fails the run rather than shipping a table
	// that cannot be trusted.
	if over := float64(a.Overhang) / float64(max(a.Total, 1)); over > 0.02 {
		res.Failed++
		traced.Failures = append(traced.Failures, fmt.Sprintf("spans overhang their parents by %.1f %% of end-to-end time", 100*over))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := tr.writeFile(filepath.Join(outDir(), cfg.Workload+".trace.json")); err != nil {
		return nil, err
	}
	plain.Failures = append(plain.Failures, traced.Failures...)
	report(cfg, perLayer, res, plain)
	return res, nil
}

// shareMetrics maps each (trace) per-layer metric to the "layer/op" span
// keys whose self time it sums.
var shareMetrics = map[string][]string{
	"vdbscan.facade_share":    {"vdbscan/"},
	"sched.self_share":        {"sched/"},
	"core.expand_share":       {"core/expand"},
	"core.scratch_share":      {"core/scratch"},
	"dbscan.run_share":        {"dbscan/"},
	"tiling.run_share":        {"tiling/"},
	"server.queue_share":      {"server/queue"},
	"server.run_share":        {"server/run"},
	"server.restore_share":    {"server/restore"},
	"client.submit_share":     {"client/submit"},
	"client.wait_share":       {"client/wait"},
	"client.serial_share":     {"client/serial"},
	"trace.unaccounted_share": {harnessLayer + "/"},
	"trace.upload_share":      {harnessLayer + "/upload"},
	"trace.append_share":      {harnessLayer + "/append"},
	"trace.labels_share":      {harnessLayer + "/labels"},
}

// report prints every metric of res as "name unit value", in spec order,
// then failed_share and any failures.
func report(cfg runConfig, defs []metricDef, res *result, m *measurement) {
	for _, d := range defs {
		fmt.Fprintf(cfg.Log, "%s %s %v\n", d.Name, d.Unit, res.Metrics[d.Name].Value)
	}
	fmt.Fprintf(cfg.Log, "failed_share ratio %v\n", float64(res.Failed)/float64(max(res.Attempted, 1)))
	sort.Strings(m.Failures)
	for _, f := range m.Failures {
		fmt.Fprintf(cfg.Log, "# FAILED CHECK: %s\n", f)
	}
}

func (r *result) jsonLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings only
	}
	return string(b)
}
