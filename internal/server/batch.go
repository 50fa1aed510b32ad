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
// same dataset, and the run executes the union of their variant lists. A
// batch takes new jobs until a runner takes it off the queue. The batch
// context is canceled only when every member job has gone away (canceled
// or deadline-expired), so one client's cancel never aborts another
// client's work.
type batch struct {
	id        string
	datasetID string

	ctx    context.Context
	cancel context.CancelFunc // called under mu by the last member to leave

	mu    sync.Mutex
	jobs  []*job
	union []vdbscan.Params // deduplicated union of member variant lists
	keys  map[string]int   // param key -> union index
	live  int              // member jobs not yet terminal

	// Set once by runBatch after the run; read by the trace/labels handlers.
	points  int         // dataset size the run saw
	version int         // dataset install version the run saw
	tracer  *obs.Tracer // the run's events; rendered on the first trace fetch
	ranAt   time.Time

	// The rendered exports, written once by render on the first fetch:
	// almost no batch's trace is ever asked for.
	render      sync.Once
	traceChrome []byte
	traceText   []byte
}

func newBatch(id, datasetID string) *batch {
	ctx, cancel := context.WithCancel(context.Background())
	return &batch{
		id:        id,
		datasetID: datasetID,
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
// variant counts after joining, or ok=false, leaving j alone, when every
// earlier member has left and canceled the batch. Caller holds Server.mu,
// which orders add against the runner taking the batch.
func (b *batch) add(j *job) (members, union int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ctx.Err() != nil {
		return 0, 0, false
	}
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
	b.jobs = append(b.jobs, j)
	b.live++
	return len(b.jobs), len(b.union), true
}

// leave records that a member job turned terminal before the batch
// delivered results. When the last one leaves, the run (pending or in
// flight) is canceled: nobody is waiting for it anymore.
func (b *batch) leave(j *job) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	if b.live == 0 {
		b.cancel()
	}
}

// members returns a snapshot of the batch's jobs and its union variants.
func (b *batch) members() ([]*job, []vdbscan.Params) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*job(nil), b.jobs...), b.union
}

func (b *batch) setRun(points, version int, tr *obs.Tracer) {
	b.mu.Lock()
	b.points = points
	b.version = version
	b.tracer = tr
	b.ranAt = time.Now()
	b.mu.Unlock()
}

// trace returns the rendered exports of the batch's run, or ok=false if the
// batch has not run yet. The first call renders them; later calls return
// the same bytes.
func (b *batch) trace() (chrome, text []byte, ok bool) {
	b.mu.Lock()
	tr := b.tracer
	b.mu.Unlock()
	if tr == nil {
		return nil, nil, false
	}
	b.render.Do(func() { b.traceChrome, b.traceText = renderTrace(tr) })
	return b.traceChrome, b.traceText, true
}

// renderTrace renders tr as Chrome trace-event JSON and as the text
// timeline; a failed export renders as its error.
func renderTrace(tr *obs.Tracer) (chrome, text []byte) {
	var c, x bytes.Buffer
	if err := tr.WriteChromeTrace(&c); err != nil {
		c.Reset()
		fmt.Fprintf(&c, `{"error":%q}`, err.Error())
	}
	if err := tr.WriteTimeline(&x); err != nil {
		x.Reset()
		fmt.Fprintf(&x, "trace unavailable: %v\n", err)
	}
	return c.Bytes(), x.Bytes()
}

// runBatch executes one batch on a runner goroutine: snapshot the
// dataset's frozen index, run the union variant list once, and distribute
// per-slot results to every member job still alive.
func (s *Server) runBatch(b *batch) {
	defer b.cancel()
	// Taking the batch out of s.open closes it to new jobs, so its members
	// are final. They all leave the admission queue with it; jobs abandoned
	// while queued already released their slot.
	s.mu.Lock()
	if s.open[b.datasetID] == b {
		delete(s.open, b.datasetID)
	}
	jobs, union := b.members()
	for _, j := range jobs {
		if j.leftQueue.CompareAndSwap(false, true) {
			s.queued--
		}
	}
	s.mu.Unlock()

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
	idx, links, points, version := d.snapshot()

	var work vdbscan.Work

	// One label resolution per run; every observation below is lock-free.
	ob := s.mx.batchObserver(b.datasetID)
	runStart := time.Now()
	for _, j := range live {
		ob.queueWait.Observe(runStart.Sub(j.created).Seconds())
		j.events.publish(evRunning, runningFrame{
			Job: j.id, Batch: b.id, Points: points, Version: version,
			Variants: len(union),
		}, true, false)
	}

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
	// slots prices exactly the work its variants consumed. Every other
	// event stays in the trace.
	var slotMu sync.Mutex
	slotWork := make([]vdbscan.Work, len(union))
	sink := func(e obs.Event) {
		if e.Kind != obs.KindDone || e.Variant < 0 {
			return
		}
		if int(e.Variant) < len(union) {
			slotMu.Lock()
			slotWork[e.Variant] = slotWork[e.Variant].Add(e.Work)
			slotMu.Unlock()
		}
		if e.Work.NeighborSearches > 0 {
			ob.epsSearches.Observe(float64(e.Work.NeighborSearches))
			ob.candPerSearch.Observe(
				float64(e.Work.CandidatesExamined) / float64(e.Work.NeighborSearches))
		}
	}
	// A variant records about ten events, so a ring of 16 per union
	// variant holds the whole run: the default 4096-event ring per worker
	// would cost ~0.4 MB a recorder, and a library-served job is a batch
	// of its own.
	tr := obs.NewTracer(obs.WithSink(sink), obs.WithRingCap(16*len(union)))

	s.log.Info("batch run starting",
		"batch", b.id, "dataset", b.datasetID, "jobs", len(live),
		"variants", len(union), "points", points)
	run, err := idx.ClusterVariants(union,
		vdbscan.WithThreads(s.cfg.Threads),
		vdbscan.WithContext(b.ctx),
		vdbscan.WithTracer(tr),
		vdbscan.WithWork(&work),
		vdbscan.WithProgress(progress),
		vdbscan.WithLinks(links),
	)
	runDur := time.Since(runStart)
	ob.batchRun.Observe(runDur.Seconds())
	s.mx.batchesRun.Inc()
	s.mx.addBatchWork(work)
	if err != nil {
		s.log.Warn("batch run failed",
			"batch", b.id, "dataset", b.datasetID, "duration", runDur, "err", err)
	} else {
		s.log.Info("batch run done",
			"batch", b.id, "dataset", b.datasetID, "duration", runDur,
			"variants", len(union), "searches", work.NeighborSearches)
	}

	b.setRun(points, version, tr)

	if err != nil {
		s.failBatch(live, err.Error())
		return
	}
	s.mx.variantsRun.Add(float64(len(union)))
	// A chain head with no source that did not run from scratch replayed
	// the dataset's library, and so, through it, did the rest of its ε.
	served := map[float64]bool{}
	for _, vr := range run.Results {
		if !vr.FromScratch && vr.SourceIndex < 0 {
			served[vr.Params.Eps] = true
		}
	}
	for _, vr := range run.Results {
		if served[vr.Params.Eps] {
			s.mx.variantsReplayed.Inc()
		}
	}

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
