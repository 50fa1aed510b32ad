package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vdbscan"
	"vdbscan/internal/obs"
)

// Admission errors surfaced by Server.admit. handlers.go maps them to 503
// (draining) and 429 + Retry-After (queue full).
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("job queue is full")
)

// batch is one ClusterVariants run: every job coalesced into it targets the
// same dataset, and the run executes the union of their variant lists. The
// batch context is canceled only when every member job has gone away
// (canceled or deadline-expired), so one client's cancel never aborts
// another client's work.
type batch struct {
	id        string
	datasetID string
	created   time.Time // when the batch opened; run start minus created is the coalescing window

	ctx    context.Context
	cancel context.CancelFunc

	timer  *time.Timer // coalescing-window seal; nil when batching is off
	sealed bool        // guarded by Server.mu, like membership below
	approx bool        // load-shed batch: runs the ρ-approximate path (see shed.go)

	mu    sync.Mutex
	jobs  []*job
	union []vdbscan.Params // deduplicated union of member variant lists
	keys  map[string]int   // param key -> union index
	live  int              // member jobs not yet terminal
	tiles int              // max tiles requested across members (0 = server default)

	// Set once by runBatch after the run; read by the trace/labels handlers.
	points      int // dataset size the run saw
	version     int // dataset install version the run saw
	traceChrome []byte
	traceText   []byte
	ranAt       time.Time
}

func newBatch(id, datasetID string) *batch {
	ctx, cancel := context.WithCancel(context.Background())
	return &batch{
		id:        id,
		datasetID: datasetID,
		created:   time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		keys:      map[string]int{},
	}
}

func paramKey(p vdbscan.Params) string {
	return fmt.Sprintf("%g/%d", p.Eps, p.MinPts)
}

// add joins j to the batch: its params are folded into the deduplicated
// union and j.slots records where each lands. Returns the member and union
// variant counts after joining. Caller holds Server.mu, which orders add
// against seal.
func (b *batch) add(j *job) (members, union int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j.batch = b
	j.slots = make([]int, len(j.params))
	for i, p := range j.params {
		k := paramKey(p)
		slot, ok := b.keys[k]
		if !ok {
			slot = len(b.union)
			b.union = append(b.union, p)
			b.keys[k] = slot
		}
		j.slots[i] = slot
	}
	if j.tiles > b.tiles {
		b.tiles = j.tiles
	}
	b.jobs = append(b.jobs, j)
	b.live++
	return len(b.jobs), len(b.union)
}

// leave records that a member job turned terminal before the batch
// delivered results. When the last one leaves, the run (pending or in
// flight) is canceled: nobody is waiting for it anymore.
func (b *batch) leave(j *job) {
	b.mu.Lock()
	b.live--
	last := b.live == 0
	b.mu.Unlock()
	if last {
		b.cancel()
	}
}

// members returns a snapshot of the batch's jobs and its union variants.
func (b *batch) members() ([]*job, []vdbscan.Params) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*job(nil), b.jobs...), b.union
}

func (b *batch) setRun(points, version int, chrome, text []byte) {
	b.mu.Lock()
	b.points = points
	b.version = version
	b.traceChrome = chrome
	b.traceText = text
	b.ranAt = time.Now()
	b.mu.Unlock()
}

// trace returns the rendered exports of the batch's run, or ok=false if the
// batch has not run yet.
func (b *batch) trace() (chrome, text []byte, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.traceChrome, b.traceText, b.traceChrome != nil
}

// runBatch executes one sealed batch on a runner goroutine: snapshot the
// dataset's frozen index, run the union variant list once, and distribute
// per-slot results to every member job still alive.
func (s *Server) runBatch(b *batch) {
	if b.approx {
		s.runApproxBatch(b)
		return
	}
	defer b.cancel()
	jobs, union := b.members()

	// Every member leaves the admission queue now; jobs abandoned while
	// queued already released their slot.
	released := 0
	for _, j := range jobs {
		if j.leftQueue.CompareAndSwap(false, true) {
			released++
		}
	}
	if released > 0 {
		s.jobLeftQueue(released)
	}

	var live []*job
	for _, j := range jobs {
		if j.setRunning() {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return // all members canceled or timed out while queued
	}

	d, ok := s.registry.get(b.datasetID)
	if !ok {
		s.failBatch(live, "dataset deleted before the job ran")
		return
	}
	idx, points, version := d.snapshot()

	var work vdbscan.Work
	b.mu.Lock()
	tiles := b.tiles
	b.mu.Unlock()
	if tiles == 0 {
		tiles = s.cfg.Tiles
	}

	// One label resolution per run; every observation below is lock-free.
	ob := s.mx.batchObserver(b.datasetID, d.kind.String(), tilesLabel(tiles))
	runStart := time.Now()
	for _, j := range live {
		ob.queueWait.Observe(runStart.Sub(j.created).Seconds())
		j.events.publish(evRunning, runningFrame{
			Job: j.id, Batch: b.id, Points: points, Version: version,
			Variants: len(union),
		}, true, false)
	}
	ob.coalesceWin.Observe(runStart.Sub(b.created).Seconds())

	// Live per-variant progress: the WithProgress callback runs serially on
	// worker goroutines, so it must stay cheap — one histogram observation
	// and a non-blocking fan-out per completed variant.
	progress := func(e vdbscan.ProgressEvent) {
		ob.variantRun.Observe(e.Duration.Seconds())
		pf := progressFrame{
			Batch: b.id, Done: e.Done, Total: e.Total,
			Variant: e.Variant, Source: e.Source, FromScratch: e.FromScratch,
			FractionReused: e.FractionReused, MeanReused: e.MeanFractionReused,
			DurationMS: float64(e.Duration) / float64(time.Millisecond),
			ElapsedMS:  float64(e.Elapsed) / float64(time.Millisecond),
		}
		for _, j := range live {
			pf.Job = j.id
			j.events.publish(evProgress, pf, false, false)
		}
	}
	// The tracer sink sees every span event at record time (concurrently,
	// from worker goroutines). Variant completions feed the ε-search work
	// histograms and the per-slot work table that quota charging reads —
	// e.Work on KindDone is that variant's own delta, so summing a job's
	// slots prices exactly the work its variants consumed. Tile-phase spans
	// become SSE phase frames. Everything else is ignored in one switch.
	var slotMu sync.Mutex
	slotWork := make([]vdbscan.Work, len(union))
	sink := func(e obs.Event) {
		switch e.Kind {
		case obs.KindDone:
			if e.Variant >= 0 && int(e.Variant) < len(union) {
				slotMu.Lock()
				slotWork[e.Variant] = slotWork[e.Variant].Add(e.Work)
				slotMu.Unlock()
			}
			if e.Variant >= 0 && e.Work.NeighborSearches > 0 {
				ob.epsSearches.Observe(float64(e.Work.NeighborSearches))
				ob.candPerSearch.Observe(
					float64(e.Work.CandidatesExamined) / float64(e.Work.NeighborSearches))
			}
		case obs.KindPhaseBegin, obs.KindPhaseEnd:
			ph := phaseName(obs.Phase(e.Arg))
			if ph == "" {
				return // only the tile phase streams; the other phases stay in the trace
			}
			state := "begin"
			if e.Kind == obs.KindPhaseEnd {
				state = "end"
			}
			hf := phaseFrame{
				Batch: b.id, Variant: int(e.Variant), Phase: ph, State: state,
				AtMS: float64(e.At) / float64(time.Millisecond),
			}
			for _, j := range live {
				hf.Job = j.id
				j.events.publish(evPhase, hf, false, false)
			}
		}
	}
	tr := obs.NewTracer(obs.WithSink(sink))

	s.log.Info("batch run starting",
		"batch", b.id, "dataset", b.datasetID, "jobs", len(live),
		"variants", len(union), "points", points, "tiles", tiles,
		"index", d.kind.String())
	run, err := idx.ClusterVariants(union,
		vdbscan.WithThreads(s.cfg.Threads),
		vdbscan.WithTiles(tiles),
		vdbscan.WithContext(b.ctx),
		vdbscan.WithTracer(tr),
		vdbscan.WithWork(&work),
		vdbscan.WithProgress(progress),
	)
	runDur := time.Since(runStart)
	ob.batchRun.Observe(runDur.Seconds())
	s.ctrs.batchesRun.Add(1)
	s.addWork(work)
	if err != nil {
		s.log.Warn("batch run failed",
			"batch", b.id, "dataset", b.datasetID, "duration", runDur, "err", err)
	} else {
		s.log.Info("batch run done",
			"batch", b.id, "dataset", b.datasetID, "duration", runDur,
			"variants", len(union), "searches", work.NeighborSearches)
	}

	var chrome, text bytes.Buffer
	if terr := tr.WriteChromeTrace(&chrome); terr != nil {
		chrome.Reset()
		fmt.Fprintf(&chrome, `{"error":%q}`, terr.Error())
	}
	if terr := tr.WriteTimeline(&text); terr != nil {
		text.Reset()
		fmt.Fprintf(&text, "trace unavailable: %v\n", terr)
	}
	b.setRun(points, version, chrome.Bytes(), text.Bytes())

	if err != nil {
		s.failBatch(live, err.Error())
		return
	}
	s.ctrs.variantsRun.Add(int64(len(union)))

	for _, j := range live {
		var jw vdbscan.Work
		outcomes := make([]variantOutcome, len(j.params))
		for i, slot := range j.slots {
			vr := run.Results[slot]
			outcomes[i] = variantOutcome{
				Params:         vr.Params,
				Clusters:       vr.Clustering.NumClusters,
				Noise:          vr.Clustering.NumNoise(),
				FractionReused: vr.FractionReused,
				FromScratch:    vr.FromScratch,
				Duration:       vr.Duration(),
				clustering:     vr.Clustering,
			}
			jw = jw.Add(slotWork[slot])
		}
		j.setOutcomeMeta("", jw)
		if s.finishJob(j, stateDone, "", outcomes, jw) {
			b.leave(j)
		}
	}
}

// failBatch finishes every still-live member as failed. Jobs that turned
// terminal concurrently (e.g. the cancel that aborted the run) are skipped.
func (s *Server) failBatch(live []*job, msg string) {
	for _, j := range live {
		if s.finishJob(j, stateFailed, msg, nil, vdbscan.Work{}) {
			j.batch.leave(j)
		}
	}
}
