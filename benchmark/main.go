// Command benchmark is the repository's one performance benchmark: five
// seeded workloads, end-to-end metrics measured with tracing off, and a
// traced run that splits the same operations across the layers. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run, or \"all\"")
		seed         = flag.Int64("seed", defaultSeed, "seed the inputs are made from")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics from a traced run")
		runs         = flag.Int("runs", 3, "with -workload all and -selfcheck: untraced runs per workload, on seeds seed, seed+1, ...; -compare calls a gain only from 10")
		out          = flag.String("out", "", "with -workload all: where to write results (default out/results.json)")
		selfcheck    = flag.Bool("selfcheck", false, "run the suite twice and fail if the two disagree beyond the bounds")
		compare      = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
		goldenFlag   = flag.Bool("write-golden", false, "regenerate testdata/golden.json from the default seed's references")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two results files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *goldenFlag:
		err = regenerateGolden()
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *runs)
	case *workloadName == "all":
		_, err = runSuite(suiteConfig{Seed: *seed, Seconds: *seconds, Runs: *runs, Out: *out, Trace: true})
	case findWorkload(*workloadName):
		var res *result
		res, err = runWorkload(runConfig{Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: 1, Log: os.Stdout})
		if err == nil {
			// The result object is the last line of standard output.
			fmt.Println(res.jsonLine())
			if !res.Correct {
				err = fmt.Errorf("%s: %d of %d operations failed or failed the output check", *workloadName, res.Failed, res.Attempted)
			}
		}
	default:
		err = fmt.Errorf("unknown -workload %q; one of %v or all", *workloadName, workloadNames())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// regenerateGolden rewrites the pinned reference facts for every workload
// at the default seed. prepare does the writing; nothing is measured.
func regenerateGolden() error {
	if err := os.Remove(goldenPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	for _, name := range workloadNames() {
		w, err := newWorkload(name)
		if err != nil {
			return err
		}
		if err := w.prepare(runConfig{Workload: name, Seed: defaultSeed, Scale: 1, WriteGolden: true, Log: os.Stdout}); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("pinned %s\n", name)
	}
	return nil
}
