// Package obs is the execution-tracing and runtime-introspection layer of
// the variant scheduler. It records structured span events — variant
// lifecycle (queued → started → seed-selected → phases → done), scheduler decisions (strategy pick, worker assignment, donor
// join/leave), and per-variant metrics.Snapshot deltas — into lock-light
// per-worker ring buffers, then exports them as a Chrome trace-event /
// Perfetto JSON file or a plain-text timeline.
//
// The paper's claims are about *when* each variant ran, *which* completed
// variant it seeded from, and *how much* ε-search work reuse skipped;
// aggregate counters and wall-clock totals cannot answer those questions.
// Tracing makes the ε-chain schedule, the donor-pool behavior of two-level
// scheduling, and the per-phase work attribution directly inspectable (the per-phase methodology of Wang, Gu & Shun,
// arXiv:1912.06255).
//
// # Cost model
//
// Tracing must never tax the ε-search and expansion hot paths:
//
//   - A nil *Tracer (the default everywhere) is a guaranteed no-op:
//     Worker returns a nil *Recorder, and every Recorder method nil-checks
//     first and allocates nothing (asserted with testing.AllocsPerRun).
//   - Events are emitted at variant/phase granularity — never per ε-search —
//     so even an enabled tracer adds a handful of ring writes per variant.
//   - Each pool worker owns one Recorder and is its only writer, so event
//     capture takes no locks; the tracer's mutex guards only recorder
//     registration and post-run exports.
//
// Ring buffers are bounded (RingCap events per worker, drop-oldest); the
// Dropped counter reports any loss so exporters can flag truncation.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vdbscan/internal/metrics"
)

// Kind identifies one structured event type.
type Kind uint8

// Event kinds. Arg and F carry kind-specific payloads (documented per kind).
const (
	// KindQueued marks a variant's position in the execution queue at
	// schedule-build time. Arg = queue position (0-based).
	KindQueued Kind = iota + 1
	// KindStarted marks a pool worker claiming a variant. The Recorder's
	// worker is the assignee.
	KindStarted
	// KindSeedSelected records the reuse-source decision for a variant.
	// Arg = source variant ID; F = normalized parameter distance (the
	// SCHEDGREEDY score; lower is closer).
	KindSeedSelected
	// KindPhaseBegin/KindPhaseEnd bracket one execution phase of a variant.
	// Arg = Phase code.
	KindPhaseBegin
	KindPhaseEnd
	// KindDone marks variant completion. Arg = source variant ID (-1 for a
	// from-scratch execution); F = fraction of points reused; Work = the
	// variant's own metrics delta (snapshot of a per-variant counter set).
	KindDone
	// KindDonorJoin/KindDonorLeave bracket an idle pool worker donating
	// itself to a running variant's parallel phase (two-level scheduling).
	// Variant = the variant helped.
	KindDonorJoin
	KindDonorLeave
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindQueued:
		return "queued"
	case KindStarted:
		return "started"
	case KindSeedSelected:
		return "seed-selected"
	case KindPhaseBegin:
		return "phase-begin"
	case KindPhaseEnd:
		return "phase-end"
	case KindDone:
		return "done"
	case KindDonorJoin:
		return "donor-join"
	case KindDonorLeave:
		return "donor-leave"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Phase identifies one execution phase inside a variant run.
type Phase uint8

// Phases of a variant execution. Scratch is a sequential from-scratch run;
// Mark/Label/Border are the phases of dbscan.RunParallelOpts and of an
// ε-chain replay, with TileRun standing in for Mark on its tiled path.
const (
	// PhaseScratch is sequential from-scratch DBSCAN on one goroutine: a
	// single variant's run, or an ε-chain's first link.
	PhaseScratch Phase = iota + 1
	// PhaseMark is the parallel part of the run: core marking and
	// core-edge disjoint-set linking — by cell counts and cell-pair tests
	// where a cell decomposition serves the run, by one ε-search per point
	// consumed on the spot everywhere else.
	PhaseMark
	// PhaseLabel is the sequential cluster numbering pass.
	PhaseLabel
	// PhaseBorder is the sequential attachment of the recorded non-core
	// points to their lowest-numbered adjacent cluster.
	PhaseBorder
	// PhaseTileRun is PhaseMark on the tiled path: workers claim whole
	// tiles of cells instead of fixed-size runs of them.
	PhaseTileRun
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseScratch:
		return "scratch"
	case PhaseMark:
		return "mark"
	case PhaseLabel:
		return "label"
	case PhaseBorder:
		return "border"
	case PhaseTileRun:
		return "tile-run"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Event is one recorded span event. Events are plain values (no pointers,
// no strings) so ring writes never allocate.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// At is the offset from the run's start. All workers share one
	// monotonic basis (the time.Time captured in StartRun), so events from
	// different workers order correctly and nest within the run window.
	At time.Duration
	// Worker is the recording pool worker, or -1 for run-level events
	// (strategy pick, queue construction).
	Worker int32
	// Variant is the variant's original ID (its index in the input params
	// slice), or -1 when not variant-specific.
	Variant int32
	// Arg is the kind-specific integer payload (see the Kind constants).
	Arg int64
	// F is the kind-specific float payload (seed score, reuse fraction).
	F float64
	// Work is the per-variant counter delta carried by KindDone events.
	Work metrics.Snapshot
}

// DefaultRingCap is the per-worker ring capacity when the tracer is built
// without an override: ~10 events per variant makes 4096 enough for runs of
// a few hundred variants per worker before drop-oldest kicks in.
const DefaultRingCap = 4096

// Tracer captures one scheduler run. The zero of its pointer type is the
// disabled state: every method on a nil *Tracer (and on the nil *Recorder
// it hands out) is a no-op, so call sites never need their own guards.
//
// A Tracer records a single run: StartRun resets all state, ExecuteContext
// (or Index.Cluster) calls it exactly once per traced run, and the
// exporters read whatever the last run captured.
type Tracer struct {
	mu       sync.Mutex
	t0       time.Time
	started  bool
	ringCap  int
	strategy string
	names    []string // variant ID -> display label
	end      time.Duration
	recs     map[int32]*Recorder
	sink     func(Event)
}

// TracerOption configures NewTracer.
type TracerOption func(*Tracer)

// WithRingCap overrides the per-worker ring capacity (minimum 16).
func WithRingCap(n int) TracerOption {
	return func(t *Tracer) {
		if n < 16 {
			n = 16
		}
		t.ringCap = n
	}
}

// WithSink attaches a live event sink: every recorded event is also passed
// to fn at record time, before the run finishes — the feed for streaming
// progress surfaces (SSE) that cannot wait for the post-run exporters.
//
// fn is called from whichever worker goroutine records the event, so it
// must be safe for concurrent use, and it sits on the recording path (still
// variant/phase granularity, never per ε-search) — it must be fast and
// non-blocking, or it becomes the run's bottleneck.
func WithSink(fn func(Event)) TracerOption {
	return func(t *Tracer) { t.sink = fn }
}

// NewTracer returns an enabled tracer ready to be passed to a run.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{ringCap: DefaultRingCap, recs: map[int32]*Recorder{}}
	for _, o := range opts {
		o(t)
	}
	return t
}

// StartRun (re)arms the tracer for one run. t0 is the run's start instant —
// the same time.Time the scheduler measures VariantResult.Start/End against,
// so trace timestamps and result offsets share one monotonic basis. strategy
// names the scheduling heuristic; names[id] labels variant id in exports.
// Safe on a nil tracer.
func (t *Tracer) StartRun(t0 time.Time, strategy string, names []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.t0 = t0
	t.started = true
	t.strategy = strategy
	t.names = append(t.names[:0], names...)
	t.end = 0
	t.recs = map[int32]*Recorder{}
}

// EndRun records the run's makespan so exporters can frame the window.
// Safe on a nil tracer.
func (t *Tracer) EndRun(makespan time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.end = makespan
	t.mu.Unlock()
}

// Worker returns the recorder owned by pool worker id (-1 is the run-level
// recorder used by the scheduling goroutine itself). The recorder must only
// be written by one goroutine at a time; the scheduler guarantees this by
// fetching it once per worker goroutine. Worker on a nil tracer returns a
// nil recorder, whose methods all no-op.
func (t *Tracer) Worker(id int) *Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := int32(id)
	if r, ok := t.recs[w]; ok {
		return r
	}
	r := &Recorder{t0: t.t0, worker: w, buf: make([]Event, 0, t.ringCap), sink: t.sink}
	t.recs[w] = r
	return r
}

// Dropped returns the number of events lost to ring overflow across all
// workers (0 on a nil tracer).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, r := range t.recs {
		n += r.dropped
	}
	return n
}

// Events returns every captured event merged across workers in time order.
// Call it only after the traced run has returned (the scheduler's
// WaitGroup provides the happens-before edge with worker writes).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, r := range t.recs {
		out = append(out, r.events()...)
	}
	sortEvents(out)
	return out
}

// name returns the display label of variant id.
func (t *Tracer) name(id int32) string {
	if id >= 0 && int(id) < len(t.names) && t.names[id] != "" {
		return t.names[id]
	}
	return fmt.Sprintf("v%d", id)
}

// sortEvents orders events by time, breaking ties so that nesting survives:
// begins before their same-instant children, ends after them.
func sortEvents(evs []Event) {
	rank := func(k Kind) int {
		switch k {
		case KindQueued:
			return 0
		case KindStarted:
			return 1
		case KindSeedSelected, KindDonorJoin:
			return 2
		case KindPhaseBegin:
			return 3
		case KindPhaseEnd:
			return 4
		case KindDonorLeave, KindDone:
			return 5
		}
		return 6
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if ra, rb := rank(a.Kind), rank(b.Kind); ra != rb {
			return ra < rb
		}
		return a.Variant < b.Variant
	})
}

// Recorder is one worker's event sink: a bounded drop-oldest ring written
// without locks by its single owning goroutine. All methods are safe on a
// nil receiver and never allocate (events are fixed-size values appended
// into a preallocated buffer).
type Recorder struct {
	t0      time.Time
	worker  int32
	buf     []Event // grows to cap once, then rotates via head
	head    int     // oldest element once the ring is saturated
	dropped int64
	sink    func(Event) // live sink shared by all recorders; may be nil
}

// push appends an event, overwriting the oldest once the ring is full.
func (r *Recorder) push(e Event) {
	if r.sink != nil {
		r.sink(e)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
}

// Event records a plain event. Safe (and free) on a nil recorder.
func (r *Recorder) Event(k Kind, variant int32, arg int64, f float64) {
	if r == nil {
		return
	}
	r.push(Event{Kind: k, At: time.Since(r.t0), Worker: r.worker, Variant: variant, Arg: arg, F: f})
}

// Done records a variant-completion event carrying the per-variant work
// delta. Safe on a nil recorder.
func (r *Recorder) Done(variant int32, source int64, fracReused float64, work metrics.Snapshot) {
	if r == nil {
		return
	}
	r.push(Event{Kind: KindDone, At: time.Since(r.t0), Worker: r.worker,
		Variant: variant, Arg: source, F: fracReused, Work: work})
}

// PhaseBegin marks the start of phase ph of a variant. Safe on a nil
// recorder.
func (r *Recorder) PhaseBegin(variant int32, ph Phase) {
	if r == nil {
		return
	}
	r.push(Event{Kind: KindPhaseBegin, At: time.Since(r.t0), Worker: r.worker,
		Variant: variant, Arg: int64(ph)})
}

// PhaseEnd marks the end of phase ph of a variant. Safe on a nil recorder.
func (r *Recorder) PhaseEnd(variant int32, ph Phase) {
	if r == nil {
		return
	}
	r.push(Event{Kind: KindPhaseEnd, At: time.Since(r.t0), Worker: r.worker,
		Variant: variant, Arg: int64(ph)})
}

// events returns the ring contents oldest-first.
func (r *Recorder) events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// ProgressEvent is one live progress report from a running variant set,
// delivered to the WithProgress callback each time a variant completes.
// Callbacks are invoked serially (never concurrently) in completion order,
// from worker goroutines — keep them fast and do not block.
type ProgressEvent struct {
	// Done counts completed variants (1-based by delivery: the first event
	// has Done == 1); Total is the variant-set size.
	Done, Total int
	// Variant is the completed variant's original ID (index in the input
	// params slice); Source is its reuse source's ID, or -1 for a
	// from-scratch execution.
	Variant, Source int
	// Worker is the pool worker that ran the variant.
	Worker int
	// FractionReused is the completed variant's fraction of points copied
	// from its source; MeanFractionReused is the running mean over all
	// completed variants.
	FractionReused     float64
	MeanFractionReused float64
	// FromScratch reports whether the variant ran plain DBSCAN (no reuse
	// source qualified).
	FromScratch bool
	// Duration is the completed variant's own response time (its End −
	// Start offsets); Elapsed is the time since the run started (same
	// monotonic basis as the trace and VariantResult.Start/End).
	Duration time.Duration
	Elapsed  time.Duration
}
