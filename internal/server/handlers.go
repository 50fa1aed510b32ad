package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"vdbscan"
	"vdbscan/internal/cliutil"
	"vdbscan/internal/dataio"
)

// ---- wire documents ----------------------------------------------------

// datasetDoc is the JSON shape of a dataset resource.
type datasetDoc struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Points     int    `json:"points"`  // covered by the installed index
	Staged     int    `json:"staged"`  // appended, awaiting re-freeze
	Version    int    `json:"version"` // index install version
	Index      string `json:"index"`   // the installed index's kind (dataset.kind)
	Refreezing bool   `json:"refreezing"`
	Created    string `json:"created"`
}

// variantSpec is one (ε, minpts) pair in a job submission.
type variantSpec struct {
	Eps    float64 `json:"eps"`
	MinPts int     `json:"minpts"`
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// jobRequest is the POST /v{1,2}/datasets/{id}/jobs body.
type jobRequest struct {
	Variants []variantSpec `json:"variants"`
	// TimeoutMS overrides the server's default job deadline (milliseconds).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// variantDoc is one per-variant result inside a job document.
type variantDoc struct {
	Eps            float64 `json:"eps"`
	MinPts         int     `json:"minpts"`
	Clusters       int     `json:"clusters"`
	Noise          int     `json:"noise"`
	FractionReused float64 `json:"fraction_reused"`
	FromScratch    bool    `json:"from_scratch"`
	DurationMS     float64 `json:"duration_ms"`
}

// jobDoc is the JSON shape of a job resource. BatchJobs and BatchVariants
// expose the coalescing outcome: a job that shared its run reports
// batch_jobs > 1 and a union variant count covering every member.
type jobDoc struct {
	ID            string       `json:"id"`
	Dataset       string       `json:"dataset"`
	State         string       `json:"state"`
	Error         string       `json:"error,omitempty"`
	Batch         string       `json:"batch"`
	BatchJobs     int          `json:"batch_jobs"`
	BatchVariants int          `json:"batch_variants"`
	Created       string       `json:"created"`
	Started       string       `json:"started,omitempty"`
	Finished      string       `json:"finished,omitempty"`
	Results       []variantDoc `json:"results,omitempty"`
	// Tenant and Work are v2-only (left unset when rendering for /v1, so
	// the v1 documents stay byte-identical to the original surface). Work
	// appears once the job is done and is exactly what the quota ledger
	// charged: eps_searches + candidates_examined = charge.
	Tenant string      `json:"tenant,omitempty"`
	Work   *jobWorkDoc `json:"work,omitempty"`
}

// jobWorkDoc itemizes a finished job's metered work and its quota charge.
type jobWorkDoc struct {
	EpsSearches        int64 `json:"eps_searches"`
	CandidatesExamined int64 `json:"candidates_examined"`
	Charge             int64 `json:"charge"`
}

type errorDoc struct {
	Error string `json:"error"`
}

// ---- helpers -----------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (s *Server) datasetDoc(d *dataset) datasetDoc {
	d.mu.Lock()
	defer d.mu.Unlock()
	return datasetDoc{
		ID:         d.id,
		Name:       d.name,
		Points:     len(d.points),
		Staged:     len(d.staged),
		Version:    d.version,
		Index:      d.kind.String(),
		Refreezing: d.refreezing,
		Created:    stamp(d.created),
	}
}

// jobDoc renders a job resource. v2 adds the tenant attribution and, once
// the job is done, the metered-work breakdown; v1 omits both so its
// documents stay byte-identical to the original surface.
func (s *Server) jobDoc(j *job, v2 bool) jobDoc {
	state, errMsg, started, finished, results := j.view()
	members, union := j.batch.members()
	doc := jobDoc{
		ID:            j.id,
		Dataset:       j.datasetID,
		State:         state,
		Error:         errMsg,
		Batch:         j.batch.id,
		BatchJobs:     len(members),
		BatchVariants: len(union),
		Created:       stamp(j.created),
		Started:       stamp(started),
		Finished:      stamp(finished),
	}
	if v2 {
		if j.tenant != nil {
			doc.Tenant = j.tenant.id()
		}
		if state == stateDone {
			work := j.meteredWork()
			doc.Work = &jobWorkDoc{
				EpsSearches:        work.NeighborSearches,
				CandidatesExamined: work.CandidatesExamined,
				Charge:             workCharge(work.NeighborSearches, work.CandidatesExamined),
			}
		}
	}
	for _, o := range results {
		doc.Results = append(doc.Results, variantDoc{
			Eps:            o.Params.Eps,
			MinPts:         o.Params.MinPts,
			Clusters:       o.Clusters,
			Noise:          o.Noise,
			FractionReused: o.FractionReused,
			FromScratch:    o.FromScratch,
			DurationMS:     float64(o.Duration) / float64(time.Millisecond),
		})
	}
	return doc
}

// retryAfterSeconds is the backpressure hint on 429 and 503 responses: one
// second, never zero, since Retry-After: 0 tells well-behaved clients to
// hammer the server in a tight loop.
func (s *Server) retryAfterSeconds() int { return 1 }

// writeDraining rejects a request during graceful drain: 503 with a
// Retry-After hint, so load balancers and retrying clients back off to
// another replica instead of treating the drain as a hard failure.
func (s *Server) writeDraining(w http.ResponseWriter, r *http.Request) {
	s.apiErrRetry(w, r, http.StatusServiceUnavailable, errCodeDraining,
		s.retryAfterSeconds(), "server is draining")
}

// lookupJob resolves {id} to a job owned by the requesting tenant. On
// failure it writes the response itself: 410 Gone when the tenant's own
// finished job was TTL-evicted, 404 otherwise. A job owned by another
// tenant — live or evicted — is indistinguishable from one that never
// existed, so neither the store nor the tombstones leak foreign job IDs.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	tn := s.tenantFrom(r.Context())
	if j, ok := s.jobs.get(id); ok && j.tenant == tn {
		return j, true
	}
	if owner, ok := s.jobs.evictedOwner(id); ok && owner == tn {
		s.apiErr(w, r, http.StatusGone, errCodeGone,
			"job %q has been evicted (result TTL expired)", id)
		return nil, false
	}
	s.apiErr(w, r, http.StatusNotFound, errCodeNotFound, "no job %q", id)
	return nil, false
}

// readPointsCSV parses a CSV request body ("x,y" rows, optional "# key:
// value" header) into points, enforcing MaxBodyBytes.
func (s *Server) readPointsCSV(w http.ResponseWriter, r *http.Request) ([]vdbscan.Point, string, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ds, err := dataio.ReadCSV(body)
	if err != nil {
		return nil, "", err
	}
	return ds.Points, ds.Name, nil
}

// ---- dataset handlers --------------------------------------------------

func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeDraining(w, r)
		return
	}
	points, csvName, err := s.readPointsCSV(w, r)
	if err != nil {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "parse dataset: %v", err)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" && csvName != "unnamed" {
		name = csvName
	}
	// Every upload is indexed on the cell grid: ?index=grid is accepted
	// for compatibility, and any other kind is refused.
	if v := r.URL.Query().Get("index"); v != "" {
		if kind, err := cliutil.ParseIndexKind(v); err != nil || kind != vdbscan.IndexGrid {
			s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest,
				"bad index parameter %q (only grid is served)", v)
			return
		}
	}
	d, err := s.registry.create(name, points)
	if err != nil {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "%v", err)
		return
	}
	s.mx.datasets.Inc()
	s.log.Info("dataset created",
		"req", requestID(r.Context()), "dataset", d.id, "name", d.name,
		"points", len(points))
	writeJSON(w, http.StatusCreated, s.datasetDoc(d))
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	docs := []datasetDoc{}
	for _, d := range s.registry.list() {
		docs = append(docs, s.datasetDoc(d))
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": docs})
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	d, ok := s.registry.get(r.PathValue("id"))
	if !ok {
		s.apiErr(w, r, http.StatusNotFound, errCodeNotFound, "no dataset %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.datasetDoc(d))
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.registry.delete(id); err {
	case nil:
		w.WriteHeader(http.StatusNoContent)
	case errRefreezing:
		// Racing the background re-freeze: the install in flight is writing
		// this dataset's snapshot, so deletion now would corrupt or resurrect
		// it. Explicit conflict, retryable once the install lands.
		s.apiErrRetry(w, r, http.StatusConflict, errCodeConflict, s.retryAfterSeconds(),
			"dataset %q is re-freezing; retry after the install completes", id)
	default:
		s.apiErr(w, r, http.StatusNotFound, errCodeNotFound, "no dataset %q", id)
	}
}

func (s *Server) handleDatasetAppend(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeDraining(w, r)
		return
	}
	d, ok := s.registry.get(r.PathValue("id"))
	if !ok {
		s.apiErr(w, r, http.StatusNotFound, errCodeNotFound, "no dataset %q", r.PathValue("id"))
		return
	}
	points, _, err := s.readPointsCSV(w, r)
	if err != nil {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "parse points: %v", err)
		return
	}
	if len(points) == 0 {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "no points in body")
		return
	}
	staged, refreezing, err := s.registry.append(d, points)
	if err != nil {
		// Lost the race with a concurrent delete after the registry lookup.
		s.apiErr(w, r, http.StatusConflict, errCodeConflict,
			"dataset %q was deleted concurrently; points not staged", d.id)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"dataset":    d.id,
		"staged":     staged,
		"refreezing": refreezing,
	})
}

// ---- job handlers ------------------------------------------------------

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFrom(r.Context())
	d, ok := s.registry.get(r.PathValue("id"))
	if !ok {
		s.apiErr(w, r, http.StatusNotFound, errCodeNotFound, "no dataset %q", r.PathValue("id"))
		return
	}
	var req jobRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "parse job request: %v", err)
		return
	}
	if len(req.Variants) == 0 {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "job has no variants")
		return
	}
	params := make([]vdbscan.Params, len(req.Variants))
	for i, v := range req.Variants {
		if v.Eps <= 0 || v.MinPts <= 0 {
			s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest,
				"variant %d: eps and minpts must be positive (got eps=%g minpts=%d)",
				i, v.Eps, v.MinPts)
			return
		}
		params[i] = vdbscan.Params{Eps: v.Eps, MinPts: v.MinPts}
	}
	if req.TimeoutMS > maxTimeoutMS {
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest,
			"timeout_ms must be <= %d (got %d)", maxTimeoutMS, req.TimeoutMS)
		return
	}
	timeout := s.cfg.JobTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}

	// Tenant admission gates, checked before the queue-depth gate so a
	// capped tenant cannot starve others out of queue slots it would not
	// be allowed to use.
	if tn.overQuota() {
		s.mx.tenantRejected.With(tn.id(), "quota").Inc()
		s.apiErrRetry(w, r, http.StatusTooManyRequests, errCodeQuotaExhausted, s.retryAfterSeconds(),
			"tenant %s has exhausted its work quota (%d of %d units charged)",
			tn.id(), tn.charged.Load(), tn.cfg.WorkQuota)
		return
	}
	if tn.atJobCap() {
		s.mx.tenantRejected.With(tn.id(), "concurrency").Inc()
		s.apiErrRetry(w, r, http.StatusTooManyRequests, errCodeRateLimited, s.retryAfterSeconds(),
			"tenant %s is at its concurrent-jobs cap (%d live)",
			tn.id(), tn.cfg.MaxConcurrentJobs)
		return
	}

	j := s.jobs.new(tn, d.id, params, timeout)
	j.events.mx = s.mx // safe: no frame published before admit
	accepted, err := s.admit(j, isV2(r))
	if err != nil {
		switch err {
		case errQueueFull:
			s.log.Warn("job rejected: queue full",
				"req", requestID(r.Context()), "dataset", d.id, "tenant", tn.id(),
				"queued", s.queueDepth())
			s.mx.tenantRejected.With(tn.id(), "queue").Inc()
			s.apiErrRetry(w, r, http.StatusTooManyRequests, errCodeQueueFull, s.retryAfterSeconds(),
				"job queue is full (%d queued)", s.queueDepth())
		case errDraining:
			s.writeDraining(w, r)
		default:
			s.apiErr(w, r, http.StatusInternalServerError, errCodeInternal, "%v", err)
		}
		return
	}
	s.jobs.put(j)
	s.armWatchdog(j)
	s.log.Info("job accepted",
		"req", requestID(r.Context()), "job", j.id, "dataset", d.id, "tenant", tn.id(),
		"batch", j.batch.id, "variants", len(params), "timeout", timeout)
	prefix := "/v1"
	if isV2(r) {
		prefix = "/v2"
	}
	w.Header().Set("Location", prefix+"/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, accepted)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFrom(r.Context())
	docs := []jobDoc{}
	for _, j := range s.jobs.list() {
		// Hard tenant isolation: a tenant's listing contains its own jobs
		// and nothing else, on both API versions.
		if j.tenant != tn {
			continue
		}
		docs = append(docs, s.jobDoc(j, isV2(r)))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

// handleJobGet returns the job document; with ?wait=<duration> it long-polls
// until the job turns terminal or the wait (capped at DefaultMaxLongPollWait)
// elapses, whichever is first.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "bad wait %q: %v", waitStr, err)
			return
		}
		if wait > DefaultMaxLongPollWait {
			wait = DefaultMaxLongPollWait
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			select {
			case <-j.done:
			case <-t.C:
			case <-r.Context().Done():
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, s.jobDoc(j, isV2(r)))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.abandon(j, stateCanceled, "canceled by client")
	writeJSON(w, http.StatusOK, s.jobDoc(j, isV2(r)))
}

// handleJobLabels streams one variant's labels as "index,label" CSV (the
// dataio.WriteLabelsCSV format, diffable against the CLI's output).
func (s *Server) handleJobLabels(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	variant := 0
	if v := r.URL.Query().Get("variant"); v != "" {
		var err error
		variant, err = strconv.Atoi(v)
		if err != nil {
			s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "bad variant %q", v)
			return
		}
	}
	o, ok := j.outcome(variant)
	if !ok {
		state, errMsg, _, _, _ := j.view()
		if state != stateDone {
			s.apiErr(w, r, http.StatusConflict, errCodeConflict,
				"job %s is %s (%s); labels require state done", j.id, state, errMsg)
		} else {
			s.apiErr(w, r, http.StatusNotFound, errCodeNotFound,
				"job %s has no variant %d", j.id, variant)
		}
		return
	}
	// An exact Content-Length keeps net/http from chunking the body.
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Length", strconv.FormatInt(dataio.LabelsCSVLen(o.clustering), 10))
	dataio.WriteLabelsCSV(w, o.clustering) //nolint:errcheck // client gone
}

// handleJobTrace serves the execution trace of the batch run that carried
// the job: Chrome trace-event JSON by default, the plain-text timeline with
// ?format=text. One batch means one trace — coalesced jobs share it.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	chrome, text, ok := j.batch.trace()
	if !ok {
		s.apiErr(w, r, http.StatusConflict, errCodeConflict, "job %s has not run yet; no trace", j.id)
		return
	}
	var body []byte
	switch f := r.URL.Query().Get("format"); f {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		body = chrome
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		body = text
	default:
		s.apiErr(w, r, http.StatusBadRequest, errCodeBadRequest, "unknown trace format %q", f)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) //nolint:errcheck // client gone
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"uptime":   time.Since(s.start).Round(time.Millisecond).String(),
		"queued":   s.queueDepth(),
		"datasets": s.registry.len(),
	})
}
