package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// SSE frame event names for the job lifecycle. Terminal frames reuse the
// job-state strings (done/failed/canceled) so a client can switch on one
// vocabulary for both polling and streaming.
const (
	evQueued   = "queued"
	evBatched  = "batched"
	evRunning  = "running"
	evProgress = "progress"
)

// streamBufFrames is each subscriber's ring depth. A batch over a union of
// V variants emits ~V progress frames; 64 rides out a multi-second network
// stall at that rate without ever blocking the publisher (overflow drops
// the subscriber's oldest frame instead).
const streamBufFrames = 64

// eventFrame is one rendered SSE frame: a monotone per-job sequence number
// (the SSE id:, so clients can detect drops), the event name, and the
// marshaled JSON payload.
type eventFrame struct {
	seq   int64
	event string
	data  []byte
}

// stream is one job's event broker: publishers (admission, the batch
// runner, tracer sinks, the watchdog) fan frames out to any number of SSE
// subscribers. Publishing never blocks — a subscriber whose buffer is full
// loses its oldest frame (counted in vdbscand_sse_dropped_frames_total),
// so a stalled client can never stall a batch run.
//
// The stream also keeps a snapshot — the latest lifecycle frame, the
// latest progress frame, and the terminal frame — replayed to every new
// subscriber, so a mid-job join immediately learns the job's current state
// instead of waiting for the next live frame, and a join after the job
// finished still sees where the job got to (lifecycle + progress) before
// the terminal frame and end-of-stream. The terminal frame is kept in its
// own slot: letting it overwrite lastState would strip a late subscriber
// of the last real lifecycle state (running, with its batch binding).
type stream struct {
	mx *serverMetrics // nil until the server wires it (and in unit tests)

	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	seq       int64
	lastState *eventFrame // latest queued/batched/running frame
	lastProg  *eventFrame // latest progress frame
	lastTerm  *eventFrame // the done/failed/canceled frame, once published
	closed    bool        // terminal frame published; stream is over
}

type subscriber struct {
	ch chan eventFrame
	// gone/chClosed are guarded by the owning stream's mu: gone makes
	// unsubscribe idempotent, chClosed prevents a double close when the
	// terminal publish already closed the channel.
	gone     bool
	chClosed bool
}

func newStream() *stream {
	return &stream{subs: map[*subscriber]struct{}{}}
}

// subscribe registers a new subscriber and replays the snapshot (in
// original sequence order) into its buffer. If the job already finished,
// the returned channel holds the replay and is already closed: the
// subscriber drains the terminal state and sees end-of-stream.
func (st *stream) subscribe() *subscriber {
	sub := &subscriber{ch: make(chan eventFrame, streamBufFrames)}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.mx != nil {
		st.mx.sseSubs.Inc()
	}
	replay := make([]eventFrame, 0, 3)
	if st.lastState != nil {
		replay = append(replay, *st.lastState)
	}
	if st.lastProg != nil {
		replay = append(replay, *st.lastProg)
	}
	if st.lastTerm != nil {
		replay = append(replay, *st.lastTerm)
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].seq < replay[j].seq })
	for _, f := range replay {
		sub.ch <- f // buffer is empty and cap >= 3: never blocks
	}
	if st.closed {
		sub.chClosed = true
		close(sub.ch)
		return sub
	}
	st.subs[sub] = struct{}{}
	return sub
}

// unsubscribe detaches sub; safe to call more than once and after the
// stream closed.
func (st *stream) unsubscribe(sub *subscriber) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sub.gone {
		return
	}
	sub.gone = true
	delete(st.subs, sub)
	if !sub.chClosed {
		sub.chClosed = true
		close(sub.ch)
	}
	if st.mx != nil {
		st.mx.sseSubs.Add(-1)
	}
}

// publish renders one frame and fans it out. snapshot marks lifecycle
// frames (kept for replay); terminal closes the stream after delivery.
// Nil-safe so tests can exercise jobs without a broker.
func (st *stream) publish(event string, payload any, snapshot, terminal bool) {
	if st == nil {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil { // unreachable for our payload structs; keep the stream alive anyway
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.seq++
	f := eventFrame{seq: st.seq, event: event, data: data}
	switch {
	case terminal:
		st.lastTerm = &f
	case event == evProgress:
		st.lastProg = &f
	case snapshot:
		st.lastState = &f
	}
	if st.mx != nil {
		st.mx.sseFrames.With(event).Inc()
	}
	for sub := range st.subs {
		st.deliver(sub, f)
	}
	if terminal {
		st.closed = true
		for sub := range st.subs {
			if !sub.chClosed {
				sub.chClosed = true
				close(sub.ch)
			}
			delete(st.subs, sub)
		}
	}
}

// deliver sends f without ever blocking: when the buffer is full the
// subscriber's oldest frame is dropped to make room. The subscriber may be
// draining concurrently, so the freed slot can be stolen by... nobody (the
// stream's mu serializes all sends); only a concurrent receive can race,
// and that only makes more room.
func (st *stream) deliver(sub *subscriber, f eventFrame) {
	select {
	case sub.ch <- f:
		return
	default:
	}
	select {
	case <-sub.ch:
		st.noteDrop()
	default: // reader drained it first; room now
	}
	select {
	case sub.ch <- f:
	default: // unreachable: mu serializes senders
		st.noteDrop()
	}
}

func (st *stream) noteDrop() {
	if st.mx != nil {
		st.mx.sseDropped.Inc()
	}
}

// ---- frame payloads ------------------------------------------------------

type queuedFrame struct {
	Job      string `json:"job"`
	Dataset  string `json:"dataset"`
	Variants int    `json:"variants"`
	Queued   int    `json:"queue_depth"`
}

type batchedFrame struct {
	Job           string `json:"job"`
	Batch         string `json:"batch"`
	BatchJobs     int    `json:"batch_jobs"`
	BatchVariants int    `json:"batch_variants"`
}

type runningFrame struct {
	Job      string `json:"job"`
	Batch    string `json:"batch"`
	Points   int    `json:"points"`
	Version  int    `json:"version"`
	Variants int    `json:"variants"` // union size the batch run executes
}

type progressFrame struct {
	Job            string  `json:"job"`
	Batch          string  `json:"batch"`
	Done           int     `json:"done"`
	Total          int     `json:"total"`
	Variant        int     `json:"variant"`
	Source         int     `json:"source"`
	FromScratch    bool    `json:"from_scratch"`
	FractionReused float64 `json:"fraction_reused"`
	MeanReused     float64 `json:"mean_fraction_reused"`
	DurationMS     float64 `json:"duration_ms"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

type terminalFrame struct {
	Job        string  `json:"job"`
	State      string  `json:"state"`
	Error      string  `json:"error,omitempty"`
	DurationMS float64 `json:"duration_ms"` // admission -> terminal
}

// ---- SSE handler ---------------------------------------------------------

// sseHeartbeat keeps idle streams alive through proxies that time out
// silent connections.
const sseHeartbeat = 15 * time.Second

// handleJobEvents streams the job's lifecycle as Server-Sent Events:
// queued -> batched -> running -> per-variant progress ->
// done|failed|canceled, then EOF. A subscriber joining mid-job first
// receives a snapshot (current state + latest progress); one joining after
// the job finished receives that snapshot plus the terminal frame and an
// immediate end-of-stream.
// Frames carry an id: with the per-job sequence number, so gaps reveal
// drop-oldest backpressure.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.apiErr(w, r, http.StatusInternalServerError, errCodeInternal,
			"streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	sub := j.events.subscribe()
	defer j.events.unsubscribe(sub)
	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case f, ok := <-sub.ch:
			if !ok {
				return // terminal frame delivered (or stream torn down)
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", f.seq, f.event, f.data); err != nil {
				return
			}
			fl.Flush()
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
