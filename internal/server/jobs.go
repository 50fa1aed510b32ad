package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan"
)

// Job states. A job is terminal in done, failed, or canceled; the done
// channel closes exactly when the job turns terminal, which is what
// long-polls and waiting clients block on.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// variantOutcome is the per-variant result a job exposes: the summary the
// job document embeds plus the full clustering behind the labels endpoint.
type variantOutcome struct {
	Params         vdbscan.Params
	Clusters       int
	Noise          int
	FractionReused float64
	FromScratch    bool
	Duration       time.Duration
	clustering     *vdbscan.Clustering
}

// job is one submitted clustering request. Mutable state is guarded by mu;
// transitions to a terminal state happen exactly once and close done.
type job struct {
	id        string
	datasetID string
	params    []vdbscan.Params
	created   time.Time
	deadline  time.Time

	tenant *tenant // owner; set before admission, never changes
	approx bool    // load-shed: served by the ρ-approximate path

	batch *batch // assigned at admission, never changes
	slots []int  // params[i] -> index into the batch's union variant list
	tiles int    // requested tile-level parallelism (0 = server default)

	// events is the job's SSE broker (see events.go). Created with the job;
	// the server wires its metrics handle before admission.
	events *stream

	mu       sync.Mutex
	state    string
	err      string
	started  time.Time
	finished time.Time
	results  []variantOutcome
	quality  string       // "" = exact, qualityApprox = load-shed answer
	work     vdbscan.Work // this job's metered work (its quota charge basis)
	watchdog *time.Timer

	done chan struct{}

	// leftQueue ensures the job releases its admission slot exactly once
	// (either when its batch starts running or when it is canceled first).
	leftQueue atomic.Bool
}

// terminalLocked reports whether the job has already finished.
func (j *job) terminalLocked() bool {
	return j.state == stateDone || j.state == stateFailed || j.state == stateCanceled
}

// setRunning moves queued -> running; a no-op if the job finished first
// (canceled or deadline-expired while queued). Reports whether the job is
// still live.
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return false
	}
	j.state = stateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state exactly once. It returns false
// if the job was already terminal. The winning call runs settle — the
// transition's counters and ledger charge — and releases the tenant's live
// slot inside the transition, before the job turns visible as terminal
// (the job document, Wait, long-polls, the terminal SSE frame), so a client
// that sees the job finished also sees it accounted. settle runs under
// j.mu, so it must neither take it nor block on I/O. The caller handles
// batch membership and queue accounting.
func (j *job) finish(state, errMsg string, results []variantOutcome, settle func()) bool {
	j.mu.Lock()
	if j.terminalLocked() {
		j.mu.Unlock()
		return false
	}
	settle()
	if j.tenant != nil {
		j.tenant.jobsLive.Add(-1)
	}
	j.state = state
	j.err = errMsg
	j.results = results
	j.finished = time.Now()
	if j.watchdog != nil {
		j.watchdog.Stop()
		j.watchdog = nil
	}
	lifetime := j.finished.Sub(j.created)
	j.mu.Unlock()
	close(j.done)
	// The terminal SSE frame closes the job's event stream; finish is the
	// single choke point every terminal transition (done, failed, canceled,
	// deadline) goes through, so no path can strand a subscriber.
	j.events.publish(state, terminalFrame{
		Job: j.id, State: state, Error: errMsg,
		DurationMS: float64(lifetime) / float64(time.Millisecond),
	}, true, true)
	return true
}

// view returns a consistent copy of the job's mutable state.
func (j *job) view() (state, errMsg string, started, finished time.Time, results []variantOutcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err, j.started, j.finished, j.results
}

// setOutcomeMeta records the run's quality tag and the job's metered work.
// Called by the runner just before finish, so every reader that observes
// the terminal state also observes the metadata.
func (j *job) setOutcomeMeta(quality string, work vdbscan.Work) {
	j.mu.Lock()
	j.quality = quality
	j.work = work
	j.mu.Unlock()
}

// outcomeMeta returns the quality tag and metered work.
func (j *job) outcomeMeta() (string, vdbscan.Work) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.quality, j.work
}

// outcome returns the i-th variant outcome once the job is done.
func (j *job) outcome(i int) (variantOutcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateDone || i < 0 || i >= len(j.results) {
		return variantOutcome{}, false
	}
	return j.results[i], true
}

// jobStore indexes jobs by ID. evicted holds tombstones of TTL-reclaimed
// jobs — id -> owning tenant — so a late GET can answer 410 Gone to the
// owner and 404 to everyone else (eviction must not leak job IDs across
// tenants).
type jobStore struct {
	mu      sync.Mutex
	m       map[string]*job
	evicted map[string]*tenant
	seq     atomic.Int64
}

func newJobStore() *jobStore {
	return &jobStore{m: map[string]*job{}, evicted: map[string]*tenant{}}
}

// new creates a queued job with its deadline counted from now. The job is
// NOT in the store yet: callers publish it with put only after admission
// succeeds, so clients can never observe a job without a batch.
func (st *jobStore) new(tn *tenant, datasetID string, params []vdbscan.Params, timeout time.Duration) *job {
	now := time.Now()
	return &job{
		id:        fmt.Sprintf("j%d", st.seq.Add(1)),
		datasetID: datasetID,
		params:    params,
		created:   now,
		deadline:  now.Add(timeout),
		tenant:    tn,
		state:     stateQueued,
		done:      make(chan struct{}),
		events:    newStream(),
	}
}

// put publishes an admitted job.
func (st *jobStore) put(j *job) {
	st.mu.Lock()
	st.m[j.id] = j
	st.mu.Unlock()
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.m[id]
	return j, ok
}

func (st *jobStore) list() []*job {
	st.mu.Lock()
	out := make([]*job, 0, len(st.m))
	for _, j := range st.m {
		out = append(out, j)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		// Numeric ID order == submission order.
		return len(out[i].id) < len(out[j].id) ||
			(len(out[i].id) == len(out[j].id) && out[i].id < out[j].id)
	})
	return out
}

// finishJob moves j to a terminal state through j.finish and settles it
// there: the state's counter and, for a done job, the tenant charge for
// its work w. The charge's log line is written after j.mu is released.
func (s *Server) finishJob(j *job, state, errMsg string, results []variantOutcome, w vdbscan.Work) bool {
	var logCharge func()
	won := j.finish(state, errMsg, results, func() {
		switch state {
		case stateDone:
			s.ctrs.jobsCompleted.Add(1)
			logCharge = s.chargeJob(j, w.NeighborSearches, w.CandidatesExamined)
		case stateCanceled:
			s.ctrs.jobsCanceled.Add(1)
		case stateFailed:
			s.ctrs.jobsFailed.Add(1)
		}
	})
	if logCharge != nil {
		logCharge()
	}
	return won
}

// abandon finishes a job early (cancel or deadline) and detaches it from
// its batch: the admission slot is released if the job was still queued,
// and the batch run is canceled once no live jobs remain. Reports whether
// the job was still live.
func (s *Server) abandon(j *job, state, errMsg string) bool {
	// The slot goes before the job turns terminal, so a client that sees it
	// failed or canceled also sees the queue without it. A job whose batch
	// started, or that another abandon finished, has released it already.
	if j.leftQueue.CompareAndSwap(false, true) {
		s.jobLeftQueue(1)
	}
	if !s.finishJob(j, state, errMsg, nil, vdbscan.Work{}) {
		return false
	}
	j.batch.leave(j)
	s.log.Info("job abandoned",
		"job", j.id, "dataset", j.datasetID, "batch", j.batch.id,
		"state", state, "err", errMsg)
	return true
}

// armWatchdog starts the job's deadline timer. Expiry is a per-job failure:
// the batch keeps running for its other members unless this was the last
// live one.
func (s *Server) armWatchdog(j *job) {
	d := time.Until(j.deadline)
	j.mu.Lock()
	j.watchdog = time.AfterFunc(d, func() {
		s.abandon(j, stateFailed, "deadline exceeded: "+fmt.Sprint(j.deadline.Sub(j.created)))
	})
	j.mu.Unlock()
}
