// Package server implements vdbscand, the HTTP/JSON clustering service.
//
// The paper's premise — many (ε, minpts) variants amortizing one shared
// immutable index — is exactly the shape of a multi-tenant service: the
// expensive artifact (the dataset's cell-grid index) is built once per
// dataset at upload time and shared by every job that targets the dataset, the way
// VariantDBSCAN shares it across variants inside one run. The server adds
// the missing network-facing layers:
//
//   - a dataset registry: upload, list, delete; each dataset holds one
//     frozen vdbscan.Index; appended points are staged and folded in by a
//     background re-freeze once they exceed a threshold;
//   - an async job queue: POST a variant list, get a job ID, poll (or
//     long-poll) for per-variant results and labels;
//   - bounded-queue admission control: when the backlog reaches QueueDepth
//     jobs, submissions are rejected with 429 and a Retry-After hint
//     instead of queuing without bound;
//   - a Link library per installed index (vdbscan.Links): every batch run
//     keeps each ε's largest-minpts chain head and replays it for later
//     jobs, the paper's reuse carried across requests;
//   - cross-request batching: a batch stays open to new jobs for its
//     dataset until a runner takes it off the queue, so an idle server runs
//     each job at once and a busy one folds the jobs queued behind its
//     runners into a single ClusterVariants run over the deduplicated union
//     of their variants — the service-level analogue of the paper's
//     variant set. There is no timer: a batch waits only for a runner;
//   - per-job deadlines and cancellation: each job carries a timeout and
//     can be canceled; a batch run is canceled only when every job in it
//     has gone away;
//   - observability: each batch run records a vdbscan.Tracer, exported per
//     job at /v1/jobs/{id}/trace; work counters and server counters are
//     exposed at /metrics;
//   - graceful drain: Drain stops admission, lets running and queued
//     batches finish, and flushes pending dataset re-freezes;
//   - multi-tenancy: optional API-key auth resolves every request to a
//     tenant carrying token-bucket rate limits, a concurrent-jobs cap, and
//     a work-metered quota ledger charged by each finished job's ε-search
//     work (GET /v2/tenants/self); finished results are TTL-evicted (410
//     Gone afterwards). The routes exist under /v1 (legacy error bodies,
//     byte-compatible) and /v2 (the versioned error envelope and
//     tenant-aware documents).
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan/internal/obs/prom"
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth      = 64
	DefaultJobTimeout      = 5 * time.Minute
	DefaultMaxBodyBytes    = 64 << 20
	DefaultRunners         = 2
	DefaultRefreezePoints  = 4096
	DefaultMaxLongPollWait = 60 * time.Second
	// DefaultJobTTL is how long a finished job's results stay retrievable
	// before the eviction sweeper reclaims them (Config.JobTTL < 0 keeps
	// them forever, the pre-eviction behavior).
	DefaultJobTTL = 15 * time.Minute
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the package default above.
type Config struct {
	// Threads is the vdbscan worker-pool width of each ClusterVariants run.
	Threads int
	// QueueDepth bounds the number of admitted-but-not-yet-running jobs;
	// submissions beyond it get 429 with a Retry-After header.
	QueueDepth int
	// BatchWindow is ignored: jobs coalesce while they wait for a runner,
	// with no timer.
	//
	// Deprecated: it stays only because the benchmark module still sets it;
	// it goes once that caller drops it.
	BatchWindow time.Duration
	// JobTimeout is the default per-job deadline, counted from admission;
	// a job may override it (shorter or longer) at submission.
	JobTimeout time.Duration
	// MaxBodyBytes caps upload and submission request bodies.
	MaxBodyBytes int64
	// Runners is the number of batch-runner goroutines: how many
	// ClusterVariants runs (over distinct batches) may be in flight at once.
	Runners int
	// RefreezePoints is the staged-append threshold that triggers a
	// background dataset re-freeze (index rebuild folding staged points in).
	RefreezePoints int
	// Logger receives the server's structured logs (admission, batch
	// run, refreeze, drain at info; per-request access lines at
	// debug), each carrying request/job/batch/dataset correlation IDs.
	// Nil discards everything.
	Logger *slog.Logger
	// DataDir, when non-empty, turns on the durable dataset store: every
	// dataset gets a page-aligned snapshot of its frozen index (written at
	// upload and after each re-freeze) plus a write-ahead log of appended
	// points, under DataDir/<dataset-id>/. On startup the directory is
	// scanned and every readable dataset is restored — the snapshot is
	// served via mmap with zero deserialization, the WAL backlog replays
	// into the staged set — so a warm restart answers its first job
	// without re-freezing anything. Corrupt or torn files are skipped
	// with a log line, never fatal. Empty keeps the registry memory-only.
	DataDir string
	// Tenants configures API-key multi-tenancy. Empty leaves the server
	// open: every caller is the anonymous tenant with no limits, exactly
	// the pre-tenancy behavior. Non-empty requires every /v1 and /v2
	// data-plane request to present a configured key (401 otherwise) and
	// applies each tenant's rate, concurrency, and work-quota limits.
	// Invalid configurations (empty/duplicate ids or keys, negative
	// limits) make New panic; load files through ParseKeysJSON to get an
	// error instead.
	Tenants []TenantConfig
	// JobTTL is how long a finished job's results (document, labels,
	// trace) stay retrievable. After it, the eviction sweeper reclaims
	// the job and GETs return 410 Gone. Zero uses DefaultJobTTL; negative
	// disables eviction (results live forever, the pre-TTL behavior).
	JobTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = DefaultJobTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.Runners <= 0 {
		c.Runners = DefaultRunners
	}
	if c.RefreezePoints <= 0 {
		c.RefreezePoints = DefaultRefreezePoints
	}
	if c.JobTTL == 0 {
		c.JobTTL = DefaultJobTTL
	}
	return c
}

// Server is the vdbscand service state: registry, job store, batch queue
// and metrics. Create one with New, expose Handler over any net/http server,
// and call Drain before exit.
type Server struct {
	cfg Config

	registry *registry
	jobs     *jobStore

	mu     sync.Mutex // guards open batches (per dataset), queued and draining-vs-admit
	open   map[string]*batch
	queued int // admitted jobs whose batch has not started running

	runCh    chan *batch
	batchWG  sync.WaitGroup // one unit per queued batch until its runner finishes
	batchSeq atomic.Int64

	draining atomic.Bool
	closed   atomic.Bool

	tenants   *tenantSet    // API-key auth + per-tenant limits and ledgers
	sweepStop chan struct{} // stops the TTL eviction sweeper; nil when disabled

	mx     *serverMetrics // Prometheus exposition and every counter (see metrics.go)
	log    *slog.Logger
	reqSeq atomic.Int64 // request-ID correlation sequence

	start time.Time
}

// New returns a started server: its batch runners are live and Handler is
// ready to serve. Callers own shutdown via Drain and/or Close.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.startRunners()
	return s
}

// newServer returns a server whose batch runners are not started yet: its
// admitted jobs stay queued until startRunners.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	tenants, err := newTenantSet(cfg.Tenants)
	if err != nil {
		// Programmer error, same class as a malformed mux pattern: a server
		// that silently dropped a misconfigured tenant would run open where
		// the operator asked for auth.
		panic("server: invalid Config.Tenants: " + err.Error())
	}
	s := &Server{
		cfg:      cfg,
		registry: newRegistry(cfg),
		jobs:     newJobStore(),
		open:     map[string]*batch{},
		// A live batch holds ≥1 queued job and jobs are bounded by
		// QueueDepth, so the channel absorbs every live batch; only batches
		// whose jobs all left can make a send wait for a runner.
		runCh:   make(chan *batch, cfg.QueueDepth+1),
		tenants: tenants,
		start:   time.Now(),
	}
	s.mx = newServerMetrics(s)
	s.log = cfg.Logger
	if s.log == nil {
		s.log = discardLogger()
	}
	// Every installed re-freeze passes here, background or drain-flushed,
	// so the counter and the histogram's _count count the same events.
	s.registry.onRefreeze = func(d *dataset, points int, dur time.Duration) {
		s.mx.refreezes.Inc()
		s.mx.refreezeDur.With(d.id).Observe(dur.Seconds())
		s.log.Info("dataset refrozen",
			"dataset", d.id, "points", points, "duration", dur)
	}
	s.registry.onPersist = func(d *dataset, op string, dur time.Duration) {
		var vec *prom.Vec
		switch op {
		case persistOpWrite:
			vec = s.mx.snapshotWrite
		case persistOpLoad:
			vec = s.mx.snapshotLoad
		case persistOpWALReplay:
			vec = s.mx.walReplay
		default:
			return
		}
		vec.With(d.id).Observe(dur.Seconds())
	}
	// Restore persisted datasets before the runners start, so the first
	// admitted job already sees the warm registry.
	s.registry.loadAll(runtime.GOMAXPROCS(0))
	if cfg.JobTTL > 0 {
		s.sweepStop = make(chan struct{})
		go s.sweepEvictions(cfg.JobTTL)
	}
	return s
}

func (s *Server) startRunners() {
	for i := 0; i < s.cfg.Runners; i++ {
		go s.runner()
	}
}

// runner executes queued batches until the channel closes.
func (s *Server) runner() {
	for b := range s.runCh {
		s.runBatch(b)
		s.batchWG.Done()
	}
}

// admit performs bounded-queue admission control and batch assignment for
// one submitted job: it joins its dataset's open batch, or opens a new one
// and queues it for the runners. It returns the job's acceptance document,
// rendered before its batch can reach a runner, so the document always
// shows the job queued with the batch it joined; or an admissionError.
func (s *Server) admit(j *job, v2 bool) (jobDoc, error) {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return jobDoc{}, errDraining
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.mx.jobsRejected.Inc()
		return jobDoc{}, errQueueFull
	}
	s.queued++
	s.mx.jobsAccepted.Inc()
	if j.tenant != nil {
		// Counted down by finish; the pair makes jobsLive the tenant's
		// queued-or-running gauge that the concurrency cap reads.
		j.tenant.jobsLive.Add(1)
	}
	// The queued frame goes out before batch assignment so subscribers see
	// queued -> batched in order.
	j.events.publish(evQueued, queuedFrame{
		Job: j.id, Dataset: j.datasetID, Variants: len(j.params), Queued: s.queued,
	}, true, false)

	// A batch whose members have all left is canceled: the job opens a
	// fresh one, and the dead batch's runner finds nobody to run for.
	b := s.open[j.datasetID]
	n, union, joined := 0, 0, false
	if b != nil {
		n, union, joined = b.add(j)
	}
	if !joined {
		b = newBatch(s.nextBatchID(), j.datasetID)
		s.open[j.datasetID] = b
		n, union, _ = b.add(j)
		// Counted under s.mu, which Drain takes to start draining, so
		// Drain's Wait always sees this batch.
		s.batchWG.Add(1)
	}
	switch {
	case n == 2:
		// The batch just became shared: both members now count as coalesced.
		s.mx.jobsCoalesced.Add(2)
	case n > 2:
		s.mx.jobsCoalesced.Add(1)
	}
	j.events.publish(evBatched, batchedFrame{
		Job: j.id, Batch: b.id, BatchJobs: n, BatchVariants: union,
	}, true, false)
	doc := s.jobDoc(j, v2)
	s.mu.Unlock()
	if !joined {
		// Sent outside s.mu: runBatch takes s.mu to close the batch.
		s.runCh <- b
	}
	return doc, nil
}

// queueDepth reports the current admission backlog.
func (s *Server) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

func (s *Server) nextBatchID() string {
	return fmt.Sprintf("b%d", s.batchSeq.Add(1))
}

// Drain gracefully quiesces the server: admission stops (submissions and
// uploads get 503), every running and queued batch finishes, and pending
// dataset re-freezes are flushed. It returns nil when fully drained, or ctx's error
// if the deadline expires first (work keeps finishing in the background).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock() // an admit that got past the check has counted its batch
	s.draining.Store(true)
	s.mu.Unlock()
	s.log.Info("drain started", "queued", s.queueDepth())
	done := make(chan struct{})
	go func() {
		s.batchWG.Wait()
		s.registry.flushRefreezes()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		s.log.Warn("drain deadline expired; work finishes in background", "err", ctx.Err())
		return ctx.Err()
	}
}

// Close stops the batch runners. Call after Drain; batches still queued are
// executed first (runners drain the channel before exiting is NOT
// guaranteed by close semantics alone, hence Drain-first).
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		close(s.runCh)
		if s.sweepStop != nil {
			close(s.sweepStop)
		}
	}
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP routes. Every data-plane route is
// mounted twice: under /v1 (the original surface, error bodies and
// documents byte-compatible with the first release, pinned by goldens) and
// under /v2 (the multi-tenant surface: versioned error envelope, tenant and
// work fields in job documents, plus the /v2-only tenant routes). One
// handler serves both — response rendering branches on the prefix — so the
// surfaces can never drift apart behaviorally.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, path string
		h            http.HandlerFunc
	}{
		{"POST", "/datasets", s.handleDatasetUpload},
		{"GET", "/datasets", s.handleDatasetList},
		{"GET", "/datasets/{id}", s.handleDatasetGet},
		{"DELETE", "/datasets/{id}", s.handleDatasetDelete},
		{"POST", "/datasets/{id}/points", s.handleDatasetAppend},
		{"POST", "/datasets/{id}/jobs", s.handleJobSubmit},
		{"GET", "/jobs", s.handleJobList},
		{"GET", "/jobs/{id}", s.handleJobGet},
		{"DELETE", "/jobs/{id}", s.handleJobCancel},
		{"GET", "/jobs/{id}/labels", s.handleJobLabels},
		{"GET", "/jobs/{id}/trace", s.handleJobTrace},
		{"GET", "/jobs/{id}/events", s.handleJobEvents},
	}
	for _, version := range []string{"/v1", "/v2"} {
		for _, rt := range routes {
			mux.HandleFunc(rt.method+" "+version+rt.path, rt.h)
		}
	}
	mux.HandleFunc("GET /v2/tenants/self", s.handleTenantSelf)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.withRequestID(s.withAuth(mux))
}
