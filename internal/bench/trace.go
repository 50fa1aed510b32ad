package bench

import (
	"fmt"
	"os"

	"vdbscan/internal/obs"
	"vdbscan/internal/sched"
	"vdbscan/internal/variant"
)

// traceVariants is the compact workload traced by Trace: a 6-variant subset
// of the S2 grid (A × {8, 16}) — small enough that the exported timeline
// stays readable, varied enough to show three ε-chains, each a head run
// from scratch and a replay of it (ε scaled per suite).
func (s *Suite) traceVariants() []variant.Variant {
	return variant.Product(s.scaleEpsAll([]float64{0.2, 0.4, 0.6}), []int{8, 16})
}

// Trace executes the traced demonstration run: the 6-variant workload on
// SW1 as ε-chains (the product's executor, internal/sched) with two-level
// scheduling across s.Threads workers, with an execution tracer attached. The plain-text
// timeline is printed to s.Out; when s.TracePath is non-empty the Chrome
// trace-event JSON (loadable in chrome://tracing or ui.perfetto.dev) is
// written there.
func (s *Suite) Trace() error {
	path := s.TracePath
	section(s.Out, "Execution trace: SW1, |V|=6, eps-chains")
	ds, err := s.Dataset("SW1")
	if err != nil {
		return err
	}
	tr := obs.NewTracer()
	if _, err := sched.Execute(s.index(ds, s.R), s.traceVariants(), sched.Options{
		Threads: s.Threads,
		Tracer:  tr,
	}); err != nil {
		return err
	}
	if err := tr.WriteTimeline(s.Out); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(s.Out, "\nwrote Chrome trace to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", path)
	return nil
}
