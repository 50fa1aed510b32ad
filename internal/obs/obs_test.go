package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"vdbscan/internal/metrics"
)

// TestNilTracerNoOps pins the disabled-tracer contract: every method on a
// nil *Tracer and on the nil *Recorder it hands out must be a safe no-op.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.StartRun(time.Now(), "SCHEDGREEDY", nil)
	tr.EndRun(time.Second)
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer Events = %v, want nil", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("nil tracer Dropped = %d, want 0", got)
	}
	rec := tr.Worker(3)
	if rec != nil {
		t.Fatalf("nil tracer Worker = %v, want nil", rec)
	}
	rec.Event(KindStarted, 0, 0, 0)
	rec.Done(0, -1, 0.5, metrics.Snapshot{})
	rec.PhaseBegin(0, PhaseExpand)
	rec.PhaseEnd(0, PhaseExpand)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer trace not JSON: %v", err)
	}
	buf.Reset()
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatalf("nil tracer WriteTimeline: %v", err)
	}
}

// TestNilRecorderZeroAlloc is the zero-overhead-when-disabled assertion at
// the instrumentation layer: emitting on a disabled (nil) recorder must not
// allocate, so the call sites on the clustering paths cost a nil check and
// nothing else.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var tr *Tracer
	rec := tr.Worker(0)
	snap := metrics.Snapshot{NeighborSearches: 12}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Event(KindStarted, 7, 0, 0)
		rec.PhaseBegin(7, PhaseScratch)
		rec.PhaseEnd(7, PhaseScratch)
		rec.Done(7, -1, 0.25, snap)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnabledRecorderZeroAllocSteadyState: even with tracing on, ring
// writes are value copies into a preallocated buffer — no allocation per
// event once the recorder exists.
func TestEnabledRecorderZeroAllocSteadyState(t *testing.T) {
	tr := NewTracer(WithRingCap(64))
	tr.StartRun(time.Now(), "SCHEDGREEDY", nil)
	rec := tr.Worker(0)
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Event(KindStarted, 1, 0, 0)
		rec.PhaseBegin(1, PhaseMark)
		rec.PhaseEnd(1, PhaseMark)
	})
	if allocs != 0 {
		t.Fatalf("enabled recorder allocated %.1f times per event batch, want 0", allocs)
	}
}

// TestRingDropOldest: a saturated ring keeps the newest events and counts
// the losses.
func TestRingDropOldest(t *testing.T) {
	tr := NewTracer(WithRingCap(16))
	tr.StartRun(time.Now(), "SCHEDGREEDY", nil)
	rec := tr.Worker(0)
	for i := 0; i < 40; i++ {
		rec.Event(KindStarted, int32(i), int64(i), 0)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("ring kept %d events, want 16", len(evs))
	}
	if tr.Dropped() != 24 {
		t.Fatalf("Dropped = %d, want 24", tr.Dropped())
	}
	// Oldest-first recovery: the survivors are exactly events 24..39.
	for i, e := range evs {
		if e.Arg != int64(24+i) {
			t.Fatalf("event %d has Arg %d, want %d (drop-oldest violated)", i, e.Arg, 24+i)
		}
	}
}

// TestEventsMergeSorted: events from several workers come back globally
// ordered by time with begin-before-end tie-breaks.
func TestEventsMergeSorted(t *testing.T) {
	tr := NewTracer()
	tr.StartRun(time.Now(), "SCHEDMINPTS", []string{"(1, 4)", "(2, 8)"})
	r0, r1 := tr.Worker(0), tr.Worker(1)
	r0.Event(KindStarted, 0, 0, 0)
	r1.Event(KindStarted, 1, 0, 0)
	r0.PhaseBegin(0, PhaseScratch)
	r1.PhaseBegin(1, PhaseScratch)
	r1.PhaseEnd(1, PhaseScratch)
	r0.PhaseEnd(0, PhaseScratch)
	r0.Done(0, -1, 0, metrics.Snapshot{})
	r1.Done(1, 0, 0.8, metrics.Snapshot{NeighborSearches: 5})
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

// buildRun synthesizes a two-worker, three-variant run with seed reuse,
// phases, and a donation — the full event vocabulary.
func buildRun(t *testing.T) *Tracer {
	t.Helper()
	tr := NewTracer()
	tr.StartRun(time.Now(), "SCHEDGREEDY", []string{"(0.2, 8)", "(0.4, 8)", "(0.6, 4)"})
	run := tr.Worker(-1)
	for i := 0; i < 3; i++ {
		run.Event(KindQueued, int32(i), int64(i), 0)
	}
	r0, r1 := tr.Worker(0), tr.Worker(1)
	r0.Event(KindStarted, 0, 0, 0)
	r0.PhaseBegin(0, PhaseScratch)
	r1.Event(KindStarted, 1, 0, 0)
	r1.PhaseBegin(1, PhaseScratch)
	r1.PhaseEnd(1, PhaseScratch)
	r1.Done(1, -1, 0, metrics.Snapshot{NeighborSearches: 100})
	r1.Event(KindDonorJoin, 0, 0, 0)
	r1.Event(KindDonorLeave, 0, 0, 0)
	r0.PhaseEnd(0, PhaseScratch)
	r0.Done(0, -1, 0, metrics.Snapshot{NeighborSearches: 90})
	r0.Event(KindStarted, 2, 0, 0)
	r0.Event(KindSeedSelected, 2, 0, 0.125)
	r0.PhaseBegin(2, PhaseExpand)
	r0.PhaseEnd(2, PhaseExpand)
	r0.PhaseBegin(2, PhaseScratch)
	r0.PhaseEnd(2, PhaseScratch)
	r0.Done(2, 0, 0.9, metrics.Snapshot{NeighborSearches: 10, PointsReused: 900})
	tr.EndRun(time.Since(time.Now().Add(-time.Millisecond)))
	return tr
}

// TestWriteChromeTrace validates the exporter output as JSON and checks
// the structural requirements: one lifecycle span per variant with
// seed-source and reuse-fraction args, phase spans, and donor spans.
func TestWriteChromeTrace(t *testing.T) {
	tr := buildRun(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	variantSpans := map[int]map[string]any{}
	phases := 0
	donors := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Pid == pidVariants {
			switch {
			case e.Args["fraction_reused"] != nil:
				variantSpans[e.Tid] = e.Args
			case e.Name == "scratch" || e.Name == "expand":
				phases++
			}
		}
		if e.Ph == "X" && e.Pid == pidWorkers && strings.HasPrefix(e.Name, "donate") {
			donors++
		}
	}
	if len(variantSpans) != 3 {
		t.Fatalf("got %d variant lifecycle spans, want 3", len(variantSpans))
	}
	v2 := variantSpans[2]
	if got := v2["seed_source"].(float64); got != 0 {
		t.Errorf("v2 seed_source = %v, want 0", got)
	}
	if got := v2["fraction_reused"].(float64); got != 0.9 {
		t.Errorf("v2 fraction_reused = %v, want 0.9", got)
	}
	if got := v2["seed_score"].(float64); got != 0.125 {
		t.Errorf("v2 seed_score = %v, want 0.125", got)
	}
	if got := v2["searches"].(float64); got != 10 {
		t.Errorf("v2 searches = %v, want 10", got)
	}
	if phases != 4 {
		t.Errorf("got %d phase spans, want 4", phases)
	}
	if donors != 1 {
		t.Errorf("got %d donor spans, want 1", donors)
	}
}

// TestWriteTimeline sanity-checks the text export: header, one line per
// variant, seed annotation, donation note.
func TestWriteTimeline(t *testing.T) {
	tr := buildRun(t)
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"SCHEDGREEDY", "3 variants done", "seed=v0", "dist=0.125",
		"from-scratch", "donated", "(0.6, 4)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestKindPhaseStrings pins the display names used in exports.
func TestKindPhaseStrings(t *testing.T) {
	if PhaseExpand.String() != "expand" || PhaseScratch.String() != "scratch" ||
		PhaseMark.String() != "mark" || PhaseLabel.String() != "label" ||
		PhaseBorder.String() != "border" || PhaseTileRun.String() != "tile-run" {
		t.Fatal("phase names changed; exports and docs depend on them")
	}
	if KindDone.String() != "done" || KindSeedSelected.String() != "seed-selected" {
		t.Fatal("kind names changed; timeline output depends on them")
	}
}

// TestSinkReceivesLiveEvents: a WithSink tracer forwards every recorded
// event to the sink at record time, in addition to the ring buffers, and
// the sink sees concurrent workers safely (run under -race).
func TestSinkReceivesLiveEvents(t *testing.T) {
	var mu sync.Mutex
	var got []Event
	tr := NewTracer(WithSink(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}))
	tr.StartRun(time.Now(), "SCHEDGREEDY", []string{"v0", "v1"})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := tr.Worker(w)
			rec.Event(KindStarted, int32(w%2), 0, 0)
			rec.PhaseBegin(int32(w%2), PhaseTileRun)
			rec.PhaseEnd(int32(w%2), PhaseTileRun)
			rec.Done(int32(w%2), -1, 0, metrics.Snapshot{NeighborSearches: 5})
		}(w)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if want := 4 * 4; len(got) != want {
		t.Fatalf("sink saw %d events, want %d", len(got), want)
	}
	kinds := map[Kind]int{}
	for _, e := range got {
		kinds[e.Kind]++
	}
	if kinds[KindDone] != 4 || kinds[KindPhaseBegin] != 4 {
		t.Fatalf("sink kind histogram %v", kinds)
	}
	// The ring still captured everything too: the sink is additive.
	if evs := tr.Events(); len(evs) != 16 {
		t.Fatalf("ring kept %d events, want 16", len(evs))
	}
	// The Done events carry the per-variant work delta the live consumer
	// (the serving plane's histograms) depends on.
	for _, e := range got {
		if e.Kind == KindDone && e.Work.NeighborSearches != 5 {
			t.Fatalf("done event lost its work delta: %+v", e)
		}
	}
}
