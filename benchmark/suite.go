package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// suiteConfig is one `-workload all` invocation.
type suiteConfig struct {
	Seed    int64
	Seconds float64
	Runs    int
	Out     string
	Trace   bool
}

// workloadResults is one workload's section of results.json.
type workloadResults struct {
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
}

// results is results.json: every workload's numbers plus the environment
// they were taken in.
type results struct {
	Environment environment                `json:"environment"`
	Seconds     float64                    `json:"run_seconds"`
	Seeds       []int64                    `json:"seeds"`
	Workloads   map[string]workloadResults `json:"workloads"`
}

// runSuite runs every workload cfg.Runs times untraced (seeds Seed, Seed+1,
// ...) and, with Trace, once traced, and writes the results file.
func runSuite(cfg suiteConfig) (*results, error) {
	sets, err := runSets(cfg, 1)
	if err != nil {
		return nil, err
	}
	path := cfg.Out
	if path == "" {
		path = filepath.Join(outDir(), "results.json")
	}
	return sets[0], writeResults(sets[0], path)
}

// runSets measures the suite nsets times over. The sets take turns run by
// run — seed s for set a, seed s for set b, seed s+1 for set a, ... — so
// that the host's drift over minutes falls on all of them alike. Every run
// is a fresh process — this binary re-executed — so each starts from a fresh
// heap and its peak RSS is its own.
func runSets(cfg suiteConfig, nsets int) ([]*results, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sets := make([]*results, nsets)
	for i := range sets {
		sets[i] = &results{Environment: captureEnv(cfg.Seed), Seconds: cfg.Seconds, Workloads: map[string]workloadResults{}}
		for r := 0; r < cfg.Runs; r++ {
			sets[i].Seeds = append(sets[i].Seeds, cfg.Seed+int64(r))
		}
	}
	// child runs one workload once and returns its result object and every
	// "name unit value" line it printed.
	child := func(name string, seed int64, trace int) (*result, map[string]float64, error) {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, nil, fmt.Errorf("%s seed %d: no result line (%v; %v)", name, seed, runErr, err)
		}
		printed := map[string]float64{}
		for _, l := range lines {
			if f := strings.Fields(l); len(f) == 3 {
				if v, err := strconv.ParseFloat(f[2], 64); err == nil {
					printed[f[0]] = v
				}
			}
		}
		return &r, printed, nil
	}
	for _, def := range workloads {
		wrs := make([]workloadResults, nsets)
		samples := make([]map[string][]float64, nsets)
		for i := range wrs {
			wrs[i] = workloadResults{Why: def.Why, EndToEnd: map[string]summary{}}
			samples[i] = map[string][]float64{}
		}
		for _, seed := range sets[0].Seeds {
			for i := range sets {
				r, printed, err := child(def.Name, seed, 0)
				if err != nil {
					return nil, err
				}
				wrs[i].Attempted += r.Attempted
				wrs[i].Failed += r.Failed
				for _, d := range userMetrics[def.Name] {
					v, ok := printed[d.Name]
					if !ok {
						return nil, fmt.Errorf("%s seed %d: run did not print %s", def.Name, seed, d.Name)
					}
					samples[i][d.Name] = append(samples[i][d.Name], v)
				}
			}
		}
		for i := range sets {
			for _, d := range userMetrics[def.Name] {
				wrs[i].EndToEnd[d.Name] = summarize(d.Unit, samples[i][d.Name])
			}
			if cfg.Trace {
				r, _, err := child(def.Name, cfg.Seed, 1)
				if err != nil {
					return nil, err
				}
				wrs[i].Attempted += r.Attempted
				wrs[i].Failed += r.Failed
				wrs[i].PerLayer = r.Metrics
			}
			sets[i].Workloads[def.Name] = wrs[i]
		}
	}
	return sets, nil
}

// writeResults writes one results file; operations that failed or failed
// the output check are an error, after the file is written.
func writeResults(res *results, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	failed := 0
	for _, w := range res.Workloads {
		failed += w.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or failed the output check", failed)
	}
	return nil
}

func loadResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much b is worse than a as a share of a (negative when b
// is better), given the metric's direction. The base of the ratio is a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// gainPairs is how many seed-paired runs a claimed gain needs at the least.
const gainPairs = 10

// verdict applies the choosing-metrics rule to one (workload, metric) pair
// of run sets: A is the parent, B the change, paired by seed. "improved" is
// a claim of a gain and needs gainPairs pairs, nine tenths of them won, and
// medians further apart than the parent's own quartiles; fewer pairs can
// only say "within bound".
func verdict(d metricDef, a, b summary) string {
	worse := worsening(d, a.Median, b.Median)
	iqr := math.Abs(a.Q3 - a.Q1)
	n := min(len(a.Values), len(b.Values))
	wins, allBetter, allWorse := 0, n > 0, n > 0
	for i := 0; i < n; i++ {
		if worsening(d, a.Values[i], b.Values[i]) < 0 {
			wins++
		}
	}
	for _, bv := range b.Values {
		for _, av := range a.Values {
			w := worsening(d, av, bv)
			allBetter = allBetter && w < 0
			allWorse = allWorse && w > 0
		}
	}
	switch {
	case n >= gainPairs && worse < 0 && float64(wins) >= 0.9*float64(n) && math.Abs(b.Median-a.Median) > iqr:
		return "improved"
	case allBetter:
		return "within bound" // every run of B beats every run of A, whatever the spread
	case allWorse && worse > d.Bound:
		return "regressed" // likewise: no spread explains every run of B behind every run of A
	case a.Median != 0 && iqr/math.Abs(a.Median) > d.Bound:
		return "unresolved" // the parent's own runs spread wider than the bound
	case worse > d.Bound:
		return "regressed"
	}
	return "within bound"
}

// compareFiles prints, per workload and end-to-end metric, both medians and
// quartiles, the relative change with its base, the bound, and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%d cores, %s)\nB = %s (%d cores, %s)\n", pathA, a.Environment.NProc, a.Environment.Commit,
		pathB, b.Environment.NProc, b.Environment.Commit)
	fmt.Fprintf(w, "%-15s %-20s %-32s %-32s %-22s %-6s %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B worse than A by", "bound", "verdict")
	regressed := 0
	for _, def := range workloads {
		wa, okA := a.Workloads[def.Name]
		wb, okB := b.Workloads[def.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-15s missing from one side\n", def.Name)
			continue
		}
		for _, um := range userMetrics[def.Name] {
			d := um.metricDef
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa.N == 0 || sb.N == 0 {
				fmt.Fprintf(w, "%-15s %-20s missing from one side\n", def.Name, d.Name)
				continue
			}
			v := verdict(d, sa, sb)
			if v == "regressed" {
				regressed++
			}
			cell := func(s summary) string { return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N) }
			fmt.Fprintf(w, "%-15s %-20s %-32s %-32s %+7.2f %% of %-9.6g %4.0f %%  %s\n", def.Name, d.Name, cell(sa), cell(sb),
				100*worsening(d, sa.Median, sb.Median), sa.Median, 100*d.Bound, v)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-15s failed operations rose from %d of %d to %d of %d: regressed\n", def.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// selfCheck measures the suite twice on the same code and seeds, the two
// sets taking turns run by run. They must agree within each end-to-end
// metric's bound, and every counter declared exact must be identical;
// otherwise the benchmark cannot tell a change from its own noise.
func selfCheck(seed int64, seconds float64, runs int) error {
	sets, err := runSets(suiteConfig{Seed: seed, Seconds: seconds, Runs: runs, Trace: true}, 2)
	if err != nil {
		return err
	}
	for i, set := range sets {
		if err := writeResults(set, filepath.Join(outDir(), fmt.Sprintf("selfcheck-%c.json", 'a'+i))); err != nil {
			return err
		}
	}
	bad := 0
	for _, def := range workloads {
		wa, wb := sets[0].Workloads[def.Name], sets[1].Workloads[def.Name]
		for _, um := range userMetrics[def.Name] {
			d := um.metricDef
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			// Either set may be the slower one; the bound applies both ways.
			delta, base := worsening(d, sa.Median, sb.Median), sa.Median
			if back := worsening(d, sb.Median, sa.Median); back > delta {
				delta, base = back, sb.Median
			}
			status := "ok"
			switch {
			case um.Exact && fmt.Sprint(sa.Values) != fmt.Sprint(sb.Values):
				status = "DIFFERS (exact counter)"
				bad++
			case delta > d.Bound:
				status = "DISAGREE"
				bad++
			}
			fmt.Printf("selfcheck %-15s %-20s %.6g vs %.6g  delta %5.2f %% of %.6g (bound %.0f %%) %s\n", def.Name, d.Name,
				sa.Median, sb.Median, 100*delta, base, 100*d.Bound, status)
		}
		for _, name := range exactCounters[def.Name] {
			status := "identical"
			if wa.PerLayer[name] != wb.PerLayer[name] {
				status = "DIFFERS"
				bad++
			}
			fmt.Printf("selfcheck %-15s %-20s exact counter %v vs %v %s\n", def.Name, name, wa.PerLayer[name].Value, wb.PerLayer[name].Value, status)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) disagree between two runs of the same code", bad)
	}
	return nil
}
