package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"vdbscan"
)

// smokeConfig runs a workload's real code on a few thousand points for a
// fraction of a second.
func smokeConfig(t *testing.T, name string, trace bool) runConfig {
	t.Helper()
	t.Setenv("VDBENCH_DIR", t.TempDir())
	return runConfig{Workload: name, Seed: 7, Seconds: 0.3, Trace: trace, Scale: 0.0125, Log: io.Discard}
}

// Every workload runs end to end at smoke scale: outputs pass the check,
// every contract metric is present and finite, and the result object has
// the shape the driver reads.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			res, err := runWorkload(smokeConfig(t, def.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v); want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			var back map[string]any
			if err := json.Unmarshal([]byte(res.jsonLine()), &back); err != nil || len(back) != 4 {
				t.Errorf("result line %q: %v", res.jsonLine(), err)
			}
		})
	}
}

// The traced run reports every per-layer metric, writes the span file, and
// its layers account for the end-to-end time.
func TestSmokeTracedRun(t *testing.T) {
	for _, name := range []string{"sweep-s2", "scratch-512k", "serve-jobs", "serve-ingest"} {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, name, true)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %d of %d failed", res.Failed, res.Attempted)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			// Uploads and appends are round trips nothing spans from outside,
			// so on serve-ingest they must show as unaccounted time.
			u, parts := res.Metrics["trace.unaccounted_share"].Value, res.Metrics["trace.upload_share"].Value+res.Metrics["trace.append_share"].Value+res.Metrics["trace.labels_share"].Value
			if u < parts || (name == "serve-ingest" && res.Metrics["trace.upload_share"].Value <= 0) {
				t.Errorf("unaccounted share %g, its upload + append + labels parts %g", u, parts)
			}
			b, err := os.ReadFile(outDir() + "/" + name + ".trace.json")
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(spans), err)
			}
			for i, s := range spans {
				if s.Parent >= i || s.End < s.Start {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
			}
		})
	}
}

// A facade that fails every call must end the run with an error, not keep
// the measuring loop waiting for a first sample that never comes.
func TestMeasureEndsWhenEveryOperationFails(t *testing.T) {
	pts, err := genPoints(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := &libWorkload{name: "no-variants", threads: 1, pts: pts, ix: vdbscan.NewIndex(pts)} // ClusterVariants refuses an empty set
	done := make(chan error, 1)
	go func() {
		_, err := w.measure(50*time.Millisecond, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("measure reported success without one successful operation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("measure is still looping")
	}
}

// Layers that are not on a workload's path take none of its time, and the
// ones that are take most of it: the prediction the workloads were built on.
func TestLayerSharesFollowTheWorkload(t *testing.T) {
	res, err := runWorkload(smokeConfig(t, "sweep-s2", true))
	if err != nil {
		t.Fatal(err)
	}
	core := res.Metrics["core.expand_share"].Value + res.Metrics["core.scratch_share"].Value
	if core < 0.5 {
		t.Errorf("core takes %g of sweep-s2; it should dominate", core)
	}
	for _, name := range []string{"server.run_share", "trace.labels_share", "tiling.run_share"} {
		if v := res.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %g on sweep-s2, want 0", name, v)
		}
	}
}

// Same seed, same inputs and — at one thread — exactly the same work; another
// seed gives the same point set in another caller order, which by design
// leaves the work alone (see genPoints).
func TestSeedDeterminesTheInputs(t *testing.T) {
	a, _ := genPoints(5000, 7)
	b, _ := genPoints(5000, 7)
	c, _ := genPoints(5000, 8)
	same, moved := true, 0
	for i := range a {
		same = same && a[i] == b[i]
		if a[i] != c[i] {
			moved++
		}
	}
	if !same || moved < len(a)/2 {
		t.Errorf("seed 7 repeats: %v; seed 8 moved %d of %d points", same, moved, len(a))
	}
	work := func(seed int64) float64 {
		cfg := smokeConfig(t, "sweep-s2", false)
		cfg.Seed = seed
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["work_units"].Value
	}
	if x, y, z := work(7), work(7), work(8); x != y || x != z {
		t.Errorf("work units %v, %v (same seed), %v (another order); all three should be equal", x, y, z)
	}
}

// BENCHMARK.json at the repository root is the same contract as spec.go,
// inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	// Whatever differs, say what the file should hold.
	defer func() {
		if t.Failed() {
			t.Logf("BENCHMARK.json as spec.go defines it:\n%s", benchmarkJSON())
		}
	}()
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q outside the driver's limits (why is %d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %q / unit %q outside the driver's limits", kind, d.Name, d.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v vs %v", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go says %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Error("counts outside the driver's limits")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// benchmarkJSON renders the contract file at the repository root.
func benchmarkJSON() string {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{d.Name, d.Unit, d.Better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and numbers only
	}
	return string(b)
}
