package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// This file turns a captured event stream into the two export formats:
//
//   - Chrome trace-event JSON (the "JSON Array Format" both chrome://tracing
//     and https://ui.perfetto.dev load directly): pid 1 carries one track
//     per pool worker showing which variant each worker ran when, pid 2
//     carries one track per variant showing its lifecycle with nested
//     seed-wait/scratch/mark/label/border phase spans, seed-selection
//     instants, and per-variant work-counter args.
//   - A plain-text timeline summary for terminals and logs.
//
// Both exporters reconstruct spans by pairing begin/end events per variant;
// events orphaned by ring overflow degrade to clipped spans rather than
// breaking the output.

// chromeEvent is one trace-event object. Field names follow the format
// spec; Ts/Dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Process/track numbering of the Chrome export.
const (
	pidWorkers  = 1 // one thread per pool worker (tid = worker+1; 0 = scheduler)
	pidVariants = 2 // one thread per variant (tid = variant ID)
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durPtr(d time.Duration) *float64 {
	v := us(d)
	return &v
}

// variantSpan is a reconstructed per-variant lifecycle.
type variantSpan struct {
	id         int32
	worker     int32
	start, end time.Duration
	started    bool
	done       bool
	source     int64
	seedScore  float64
	seedSet    bool
	coreSource int64         // the head whose core set seeded this one, or -1
	waitFrom   time.Duration // the open seed-wait phase's begin
	wait       time.Duration // the seed-wait phase's length
	waited     bool
	frac       float64
	work       workArgs
}

type workArgs struct {
	searches, candidates, neighbors, nodes, reusedPts, reusedClus, destroyed int64
}

// spans pairs Started/Done events into per-variant lifecycles and returns
// them keyed by variant ID, plus the largest timestamp seen (the frame for
// clipping orphaned spans).
func spans(evs []Event) (map[int32]*variantSpan, time.Duration) {
	out := map[int32]*variantSpan{}
	var maxAt time.Duration
	get := func(id int32) *variantSpan {
		s, ok := out[id]
		if !ok {
			s = &variantSpan{id: id, source: -1, coreSource: -1}
			out[id] = s
		}
		return s
	}
	for _, e := range evs {
		if e.At > maxAt {
			maxAt = e.At
		}
		if e.Variant < 0 {
			continue
		}
		switch e.Kind {
		case KindStarted:
			s := get(e.Variant)
			s.start, s.worker, s.started = e.At, e.Worker, true
		case KindSeedSelected:
			s := get(e.Variant)
			s.source, s.seedScore, s.seedSet = e.Arg, e.F, true
		case KindSeeded:
			get(e.Variant).coreSource = e.Arg
		case KindPhaseBegin:
			if Phase(e.Arg) == PhaseSeedWait {
				get(e.Variant).waitFrom = e.At
			}
		case KindPhaseEnd:
			if Phase(e.Arg) == PhaseSeedWait {
				s := get(e.Variant)
				s.wait, s.waited = e.At-s.waitFrom, true
			}
		case KindDone:
			s := get(e.Variant)
			s.end, s.done = e.At, true
			s.source, s.frac = e.Arg, e.F
			s.work = workArgs{
				searches: e.Work.NeighborSearches, candidates: e.Work.CandidatesExamined,
				neighbors: e.Work.NeighborsFound, nodes: e.Work.NodesVisited,
				reusedPts: e.Work.PointsReused, reusedClus: e.Work.ClustersReused,
				destroyed: e.Work.ClustersDestroyed,
			}
		}
	}
	return out, maxAt
}

// WriteChromeTrace writes the run as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Safe on a nil tracer (writes an empty
// trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	var out []chromeEvent
	if t == nil {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": out})
	}
	t.mu.Lock()
	strategy, end, dropped := t.strategy, t.end, int64(0)
	names := append([]string(nil), t.names...)
	t.mu.Unlock()
	dropped = t.Dropped()
	name := func(id int32) string {
		if id >= 0 && int(id) < len(names) && names[id] != "" {
			return names[id]
		}
		return fmt.Sprintf("v%d", id)
	}

	vspans, maxAt := spans(evs)
	if end > maxAt {
		maxAt = end
	}

	// Track metadata: name the two processes and every thread.
	meta := func(pid, tid int, key, value string) {
		out = append(out, chromeEvent{Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": value}})
	}
	meta(pidWorkers, 0, "process_name", "pool workers")
	meta(pidVariants, 0, "process_name", "variants")
	meta(pidWorkers, 0, "thread_name", "scheduler")
	seenWorker := map[int32]bool{}
	for _, e := range evs {
		if e.Worker >= 0 && !seenWorker[e.Worker] {
			seenWorker[e.Worker] = true
			meta(pidWorkers, int(e.Worker)+1, "thread_name", fmt.Sprintf("worker %d", e.Worker))
		}
	}
	// Map order must not reach the output: a trace renders to the same
	// bytes every time.
	ids := make([]int32, 0, len(vspans))
	for id := range vspans {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		meta(pidVariants, int(id), "thread_name", fmt.Sprintf("v%d %s", id, name(id)))
	}

	// Run-level frame: one span covering the whole run on the scheduler
	// track, annotated with the strategy pick and drop accounting.
	out = append(out, chromeEvent{
		Name: "run", Cat: "sched", Ph: "X", Ts: 0, Dur: durPtr(maxAt),
		Pid: pidWorkers, Tid: 0,
		Args: map[string]any{"strategy": strategy, "events": len(evs), "dropped_events": dropped},
	})

	// Variant lifecycle spans: one per variant on its own track and a twin
	// on its worker's track, both carrying the seed-source and
	// reuse-fraction annotations the schedule plots need.
	for _, id := range ids {
		s := vspans[id]
		if !s.started && !s.done {
			continue
		}
		if !s.started { // start lost to ring overflow: clip to run start
			s.start = 0
		}
		if !s.done { // never completed (cancelled run): clip to frame end
			s.end = maxAt
		}
		args := map[string]any{
			"variant":            int(id),
			"seed_source":        s.source,
			"from_scratch":       s.source < 0 && s.frac == 0,
			"fraction_reused":    s.frac,
			"worker":             int(s.worker),
			"searches":           s.work.searches,
			"candidates":         s.work.candidates,
			"neighbors":          s.work.neighbors,
			"nodes_visited":      s.work.nodes,
			"points_reused":      s.work.reusedPts,
			"clusters_reused":    s.work.reusedClus,
			"clusters_destroyed": s.work.destroyed,
		}
		if s.seedSet {
			args["seed_score"] = s.seedScore
		}
		ev := chromeEvent{Name: name(id), Cat: "variant", Ph: "X",
			Ts: us(s.start), Dur: durPtr(s.end - s.start), Pid: pidVariants, Tid: int(id), Args: args}
		out = append(out, ev)
		ev.Pid, ev.Tid = pidWorkers, int(s.worker)+1
		out = append(out, ev)
	}

	// Phase spans, nested inside the variant spans on the variant tracks.
	// Begin/end events pair up per (variant, phase); orphans clip to the
	// frame.
	type key struct {
		variant int32
		arg     int64
	}
	phaseOpen := map[key]time.Duration{}
	for _, e := range evs {
		switch e.Kind {
		case KindQueued:
			out = append(out, chromeEvent{Name: fmt.Sprintf("queued %s", name(e.Variant)),
				Cat: "sched", Ph: "i", Ts: us(e.At), Pid: pidWorkers, Tid: 0, S: "t",
				Args: map[string]any{"variant": int(e.Variant), "position": e.Arg}})
		case KindSeedSelected:
			out = append(out, chromeEvent{Name: "seed-selected", Cat: "sched", Ph: "i",
				Ts: us(e.At), Pid: pidVariants, Tid: int(e.Variant), S: "t",
				Args: map[string]any{"seed_source": e.Arg, "seed_score": e.F}})
		case KindSeeded:
			out = append(out, chromeEvent{Name: "seeded", Cat: "sched", Ph: "i",
				Ts: us(e.At), Pid: pidVariants, Tid: int(e.Variant), S: "t",
				Args: map[string]any{"core_source": e.Arg, "seeded_points": int64(e.F)}})
		case KindPhaseBegin:
			phaseOpen[key{e.Variant, e.Arg}] = e.At
		case KindPhaseEnd:
			k := key{e.Variant, e.Arg}
			begin, ok := phaseOpen[k]
			if !ok {
				begin = 0
			}
			delete(phaseOpen, k)
			out = append(out, chromeEvent{Name: Phase(e.Arg).String(), Cat: "phase", Ph: "X",
				Ts: us(begin), Dur: durPtr(e.At - begin), Pid: pidVariants, Tid: int(e.Variant),
				Args: map[string]any{"variant": int(e.Variant)}})
		}
	}
	open := make([]key, 0, len(phaseOpen))
	for k := range phaseOpen {
		open = append(open, k)
	}
	slices.SortFunc(open, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.variant, b.variant), cmp.Compare(a.arg, b.arg))
	})
	for _, k := range open { // still open at frame end: clip
		begin := phaseOpen[k]
		out = append(out, chromeEvent{Name: Phase(k.arg).String(), Cat: "phase", Ph: "X",
			Ts: us(begin), Dur: durPtr(maxAt - begin), Pid: pidVariants, Tid: int(k.variant)})
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}

// WriteTimeline writes a human-readable run summary: one line per variant
// in start order with its worker, window, seed source, reuse fraction, and
// ε-search count. Safe on a nil tracer.
func (t *Tracer) WriteTimeline(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "trace: disabled (nil tracer)")
		return err
	}
	evs := t.Events()
	t.mu.Lock()
	strategy, end := t.strategy, t.end
	names := append([]string(nil), t.names...)
	t.mu.Unlock()
	name := func(id int32) string {
		if id >= 0 && int(id) < len(names) && names[id] != "" {
			return names[id]
		}
		return fmt.Sprintf("v%d", id)
	}

	vspans, maxAt := spans(evs)
	if end > maxAt {
		maxAt = end
	}
	workers := map[int32]bool{}
	var done int
	var fracSum float64
	list := make([]*variantSpan, 0, len(vspans))
	for _, s := range vspans {
		list = append(list, s)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].start != list[j].start {
			return list[i].start < list[j].start
		}
		return list[i].id < list[j].id
	})
	for _, s := range list { // in list order: the sum must not follow map order
		if s.done {
			done++
			fracSum += s.frac
		}
		if s.started {
			workers[s.worker] = true
		}
	}
	meanFrac := 0.0
	if done > 0 {
		meanFrac = fracSum / float64(done)
	}
	fmt.Fprintf(w, "trace: %s | %d variants done on %d workers | makespan %s | mean reuse %.3f",
		strategy, done, len(workers), maxAt.Round(time.Microsecond), meanFrac)
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(w, " | %d events dropped (raise ring cap)", d)
	}
	fmt.Fprintln(w)

	for _, s := range list {
		if !s.started && !s.done {
			continue
		}
		src := "from-scratch"
		if s.coreSource >= 0 {
			src += fmt.Sprintf(" core=v%d", s.coreSource)
		}
		if s.waited {
			src += fmt.Sprintf(" wait=%s", s.wait.Round(time.Microsecond))
		}
		if s.frac > 0 {
			src = "library" // reused, but from no variant of this run
		}
		if s.source >= 0 {
			src = fmt.Sprintf("seed=v%d", s.source)
			if s.seedSet {
				src += fmt.Sprintf(" dist=%.3f", s.seedScore)
			}
		}
		fmt.Fprintf(w, "  [w%-2d] v%-3d %-12s %9s – %-9s %9s  %-28s reuse=%5.1f%% searches=%d\n",
			s.worker, s.id, name(s.id),
			s.start.Round(time.Microsecond), s.end.Round(time.Microsecond),
			(s.end - s.start).Round(time.Microsecond), src, 100*s.frac, s.work.searches)
	}
	return nil
}
