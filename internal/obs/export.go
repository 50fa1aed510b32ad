package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// This file turns a captured event stream into the two export formats:
//
//   - Chrome trace-event JSON (the "JSON Array Format" both chrome://tracing
//     and https://ui.perfetto.dev load directly): pid 1 carries one track
//     per pool worker showing what each core executed when (variant spans,
//     donated phases), pid 2 carries one track per variant showing its
//     lifecycle with nested scratch/mark/label/border phase spans,
//     seed-selection instants, and per-variant work-counter args.
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
			s = &variantSpan{id: id, source: -1}
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
	for id := range vspans {
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
	ids := make([]int32, 0, len(vspans))
	for id := range vspans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
			"from_scratch":       s.source < 0,
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

	// Phase spans (nested inside the variant spans on the variant tracks)
	// and donor spans (on the donating worker's track). Begin/end events
	// pair up per (variant, phase) / (worker, variant); orphans clip to the
	// frame.
	type key struct {
		variant int32
		arg     int64
	}
	phaseOpen := map[key]time.Duration{}
	donorOpen := map[key]time.Duration{}
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
		case KindDonorJoin:
			donorOpen[key{e.Worker, int64(e.Variant)}] = e.At
		case KindDonorLeave:
			k := key{e.Worker, int64(e.Variant)}
			begin, ok := donorOpen[k]
			if !ok {
				begin = 0
			}
			delete(donorOpen, k)
			out = append(out, chromeEvent{Name: fmt.Sprintf("donate→%s", name(e.Variant)),
				Cat: "donor", Ph: "X", Ts: us(begin), Dur: durPtr(e.At - begin),
				Pid: pidWorkers, Tid: int(e.Worker) + 1,
				Args: map[string]any{"variant": int(e.Variant)}})
		}
	}
	for k, begin := range phaseOpen { // still open at frame end: clip
		out = append(out, chromeEvent{Name: Phase(k.arg).String(), Cat: "phase", Ph: "X",
			Ts: us(begin), Dur: durPtr(maxAt - begin), Pid: pidVariants, Tid: int(k.variant)})
	}
	for k, begin := range donorOpen {
		out = append(out, chromeEvent{Name: "donate", Cat: "donor", Ph: "X",
			Ts: us(begin), Dur: durPtr(maxAt - begin), Pid: pidWorkers, Tid: int(k.variant) + 1})
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
// ε-search count, followed by per-worker donation notes. Safe on a nil
// tracer.
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
		if s.done {
			done++
			fracSum += s.frac
		}
		if s.started {
			workers[s.worker] = true
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].start != list[j].start {
			return list[i].start < list[j].start
		}
		return list[i].id < list[j].id
	})
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

	// Donation activity, if any: which idle workers helped which variants.
	type dkey struct {
		worker, variant int32
	}
	joins := map[dkey]time.Duration{}
	for _, e := range evs {
		switch e.Kind {
		case KindDonorJoin:
			joins[dkey{e.Worker, e.Variant}] = e.At
		case KindDonorLeave:
			k := dkey{e.Worker, e.Variant}
			if begin, ok := joins[k]; ok {
				fmt.Fprintf(w, "  [w%-2d] donated %s to v%d (%s)\n",
					e.Worker, (e.At - begin).Round(time.Microsecond), e.Variant, name(e.Variant))
				delete(joins, k)
			}
		}
	}
	return nil
}
