// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig1|table1|table2|table3|table4|fig4|fig5|fig6|fig7|fig8|fig9|trace]
//	            [-scale 0.01] [-threads 16] [-r 70] [-index rtree|grid] [-seed N]
//	            [-trace out.json] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -scale multiplies every dataset's |D| (1 reproduces the paper's sizes; the
// default 0.01 keeps a laptop run in minutes). ε values are automatically
// multiplied by 1/√scale to compensate for the density drop.
//
// Figs. 4–9 run the paper's own executor (internal/paper): Alg. 3/4 cluster
// reuse under SCHEDGREEDY / SCHEDMINPTS on a pool of -threads goroutines.
//
// -trace runs the traced demonstration workload (6 variants on SW1 as
// ε-chains, the library's executor, with an execution tracer attached)
// after the selected experiments, printing a plain-text timeline and
// writing Chrome trace-event JSON to the given file — open it in
// chrome://tracing or https://ui.perfetto.dev. The same run is
// also available as `-exp trace` (timeline only unless -trace is set).
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments, so index-layout and allocation behavior can be inspected
// (`go tool pprof cpu.out`) without editing harness code.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vdbscan/internal/bench"
	"vdbscan/internal/cliutil"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, "+strings.Join(bench.Experiments, ", "))
	scale := flag.Float64("scale", 0.01, "dataset size scale factor in (0,1]")
	threads := flag.Int("threads", 16, "worker pool size T for multithreaded scenarios")
	r := flag.Int("r", 70, "epsilon-search tree leaf occupancy (points per MBB)")
	indexKind := flag.String("index", "rtree", "eps-search index structure: rtree or grid")
	seed := flag.Uint64("seed", 0xDB5CA7, "dataset generation seed")
	trials := flag.Int("trials", 1, "repetitions averaged per timed measurement (paper: 3)")
	tracePath := flag.String("trace", "", "write a Chrome trace of the demonstration workload to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	if *scale <= 0 || *scale > 1 {
		fmt.Fprintln(os.Stderr, "experiments: -scale must be in (0,1]")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}
	kindVal, err := cliutil.ParseIndexKind(*indexKind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	s := bench.NewSuite(*scale, os.Stdout)
	s.Threads = *threads
	s.R = *r
	s.IndexKind = kindVal
	s.Seed = *seed
	s.Trials = *trials
	s.TracePath = *tracePath

	fmt.Printf("VariantDBSCAN experiment harness\n")
	fmt.Printf("scale=%g (eps x%.2f), threads=%d, r=%d, index=%s, trials=%d, seed=%#x\n",
		*scale, s.EpsFactor(), s.Threads, s.R, s.IndexKind, s.Trials, s.Seed)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		// Flush the profiles before exiting so a failed experiment still
		// leaves them inspectable (os.Exit skips deferred writers).
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			writeHeapProfile(*memProfile)
		}
		os.Exit(1)
	}
	start := time.Now()
	if err := s.Run(*exp); err != nil {
		fail(err)
	}
	if *tracePath != "" && *exp != "trace" {
		if err := s.Trace(); err != nil {
			fail(err)
		}
	}
	fmt.Printf("\ncompleted %q in %s\n", *exp, time.Since(start).Round(time.Millisecond))
}

// writeHeapProfile snapshots the live heap into path.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}
	defer f.Close()
	runtime.GC() // settle live heap before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
}
