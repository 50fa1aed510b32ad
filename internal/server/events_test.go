package server

import (
	"bufio"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainOne receives one frame or fails after a timeout.
func drainOne(t *testing.T, sub *subscriber) (eventFrame, bool) {
	t.Helper()
	select {
	case f, ok := <-sub.ch:
		return f, ok
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
		return eventFrame{}, false
	}
}

// TestStreamSnapshotReplay: a subscriber joining mid-job immediately
// receives the latest lifecycle frame and the latest progress frame, in
// original sequence order, before any live frames.
func TestStreamSnapshotReplay(t *testing.T) {
	st := newStream()
	st.publish(evQueued, queuedFrame{Job: "j1"}, true, false)
	st.publish(evBatched, batchedFrame{Job: "j1", Batch: "b1"}, true, false)
	st.publish(evProgress, progressFrame{Job: "j1", Done: 1, Total: 3}, false, false)
	st.publish(evProgress, progressFrame{Job: "j1", Done: 2, Total: 3}, false, false)

	sub := st.subscribe()
	defer st.unsubscribe(sub)
	f1, _ := drainOne(t, sub)
	if f1.event != evBatched || f1.seq != 2 {
		t.Fatalf("first replay frame = %s seq %d, want batched seq 2", f1.event, f1.seq)
	}
	f2, _ := drainOne(t, sub)
	if f2.event != evProgress || f2.seq != 4 {
		t.Fatalf("second replay frame = %s seq %d, want progress seq 4 (latest only)", f2.event, f2.seq)
	}
	// Live frames follow the replay.
	st.publish(evRunning, runningFrame{Job: "j1"}, true, false)
	f3, _ := drainOne(t, sub)
	if f3.event != evRunning || f3.seq != 5 {
		t.Fatalf("live frame = %s seq %d, want running seq 5", f3.event, f3.seq)
	}
	select {
	case f := <-sub.ch:
		t.Fatalf("unexpected extra frame %s seq %d", f.event, f.seq)
	default:
	}
}

// TestStreamDropOldest: a subscriber that never drains loses its oldest
// frames, keeps the newest, and never blocks the publisher.
func TestStreamDropOldest(t *testing.T) {
	st := newStream()
	sub := st.subscribe()
	defer st.unsubscribe(sub)

	const extra = 10
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < streamBufFrames+extra; i++ {
			st.publish(evProgress, progressFrame{Done: i + 1}, false, false)
		}
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a stalled subscriber")
	}

	// The buffer holds exactly the newest streamBufFrames frames.
	for want := int64(extra + 1); want <= streamBufFrames+extra; want++ {
		f, ok := drainOne(t, sub)
		if !ok {
			t.Fatalf("channel closed at seq %d", want)
		}
		if f.seq != want {
			t.Fatalf("frame seq = %d, want %d (oldest must drop first)", f.seq, want)
		}
	}
	select {
	case f := <-sub.ch:
		t.Fatalf("unexpected extra frame seq %d", f.seq)
	default:
	}
}

// TestStreamTerminal: the terminal frame is delivered and every subscriber
// channel closes; joining after the end replays the terminal state then
// closes immediately.
func TestStreamTerminal(t *testing.T) {
	st := newStream()
	sub := st.subscribe()
	st.publish(evQueued, queuedFrame{Job: "j1"}, true, false)
	st.publish(stateCanceled, terminalFrame{Job: "j1", State: stateCanceled}, true, true)

	if f, _ := drainOne(t, sub); f.event != evQueued {
		t.Fatalf("frame 1 = %s, want queued", f.event)
	}
	if f, _ := drainOne(t, sub); f.event != stateCanceled {
		t.Fatalf("frame 2 = %s, want canceled", f.event)
	}
	if _, ok := drainOne(t, sub); ok {
		t.Fatal("channel still open after terminal frame")
	}
	st.unsubscribe(sub) // idempotent with the terminal close
	st.unsubscribe(sub)

	// Publishing after the end is a no-op, not a panic.
	st.publish(evProgress, progressFrame{}, false, false)

	// A late join replays the last lifecycle state and then the terminal
	// frame — the terminal lives in its own snapshot slot, it does not
	// erase where the job got to.
	late := st.subscribe()
	if f, _ := drainOne(t, late); f.event != evQueued {
		t.Fatalf("late join frame 1 = %s, want queued", f.event)
	}
	if f, _ := drainOne(t, late); f.event != stateCanceled {
		t.Fatalf("late join frame 2 = %s, want canceled", f.event)
	}
	if _, ok := drainOne(t, late); ok {
		t.Fatal("late join channel not closed")
	}
	st.unsubscribe(late)
}

// TestStreamLateSubscribeAfterTerminal pins the full post-completion
// replay: a subscriber joining after the terminal frame receives the
// latest lifecycle frame, the latest progress frame, and the terminal
// frame — in original sequence order — then an immediate end-of-stream.
// (Before the lastTerm slot existed, the terminal frame overwrote the
// lifecycle snapshot and late joiners lost the running state.)
func TestStreamLateSubscribeAfterTerminal(t *testing.T) {
	st := newStream()
	st.publish(evQueued, queuedFrame{Job: "j1"}, true, false)
	st.publish(evBatched, batchedFrame{Job: "j1", Batch: "b1"}, true, false)
	st.publish(evRunning, runningFrame{Job: "j1", Batch: "b1"}, true, false)
	st.publish(evProgress, progressFrame{Job: "j1", Done: 1, Total: 2}, false, false)
	st.publish(evProgress, progressFrame{Job: "j1", Done: 2, Total: 2}, false, false)
	st.publish(stateDone, terminalFrame{Job: "j1", State: stateDone}, true, true)

	sub := st.subscribe()
	want := []struct {
		event string
		seq   int64
	}{{evRunning, 3}, {evProgress, 5}, {stateDone, 6}}
	for i, w := range want {
		f, ok := drainOne(t, sub)
		if !ok {
			t.Fatalf("stream closed before frame %d (%s)", i+1, w.event)
		}
		if f.event != w.event || f.seq != w.seq {
			t.Fatalf("replay frame %d = %s seq %d, want %s seq %d",
				i+1, f.event, f.seq, w.event, w.seq)
		}
	}
	if _, ok := drainOne(t, sub); ok {
		t.Fatal("late subscriber's channel not closed after terminal replay")
	}
	st.unsubscribe(sub)
}

// TestStreamConcurrentSubscribers: 8 subscribers join, drain, and leave
// while a publisher storms frames and then terminates the stream. Run
// under -race this is the broker's synchronization proof.
func TestStreamConcurrentSubscribers(t *testing.T) {
	st := newStream()
	const subs = 8
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(slow bool) {
			defer wg.Done()
			sub := st.subscribe()
			defer st.unsubscribe(sub)
			sawTerminal := false
			for f := range sub.ch {
				if slow {
					time.Sleep(time.Millisecond) // force drop-oldest pressure
				}
				if f.event == stateDone {
					sawTerminal = true
				}
			}
			if !sawTerminal {
				t.Error("subscriber missed the terminal frame")
			}
		}(i%2 == 0)
	}
	for i := 0; i < 200; i++ {
		st.publish(evProgress, progressFrame{Done: i + 1, Total: 200}, false, false)
	}
	st.publish(stateDone, terminalFrame{State: stateDone}, true, true)
	wg.Wait()
}

// sseFrameDoc is one parsed SSE frame from the wire.
type sseFrameDoc struct {
	id    string
	event string
	data  string
}

// readSSE consumes an SSE body until the stream ends, returning the frames.
func readSSE(t *testing.T, body *bufio.Reader) []sseFrameDoc {
	t.Helper()
	var frames []sseFrameDoc
	cur := sseFrameDoc{}
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return frames // EOF: server closed the stream
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrameDoc{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"): // comment/keepalive
		default:
			t.Fatalf("unparseable SSE line %q", line)
		}
	}
}

// TestJobEventsSSE drives the full HTTP surface: submit a 3-variant job,
// stream its events, and require per-variant progress frames and a
// terminal done frame. The snapshot replay makes this deterministic even
// if the job finishes before the subscriber connects.
func TestJobEventsSSE(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 2})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 2000)), http.StatusCreated)
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":8},{"eps":3,"minpts":4},{"eps":4,"minpts":4}]}`,
		http.StatusAccepted)

	resp, err := http.Get(c.base + "/v1/jobs/j1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	frames := readSSE(t, bufio.NewReader(resp.Body))
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	last := frames[len(frames)-1]
	if last.event != stateDone {
		t.Fatalf("terminal frame = %s (%s), want done", last.event, last.data)
	}
	progress := 0
	for _, f := range frames {
		if f.event == evProgress {
			progress++
			if !strings.Contains(f.data, `"duration_ms"`) {
				t.Errorf("progress frame lacks duration_ms: %s", f.data)
			}
		}
	}
	if progress == 0 {
		t.Errorf("no progress frames; got %+v", frames)
	}

	// A join after completion still sees the snapshot: the running state,
	// the latest progress, then the terminal frame, then EOF.
	resp2, err := http.Get(c.base + "/v1/jobs/j1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, bufio.NewReader(resp2.Body))
	if len(replay) != 3 || replay[0].event != evRunning ||
		replay[1].event != evProgress || replay[2].event != stateDone {
		t.Fatalf("post-completion replay = %+v, want [running progress done]", replay)
	}

	if _, _, body := c.do("GET", "/v1/jobs/nope/events", nil); !strings.Contains(string(body), "no job") {
		t.Errorf("missing-job events body = %s", body)
	}
}

// TestJobEventsCancel: a canceled job's stream terminates with a canceled
// frame — the client is never left hanging on a job that will not run. The
// runners are parked, so the job is still queued when it is canceled.
func TestJobEventsCancel(t *testing.T) {
	_, c, _ := newParkedServer(t, Config{Threads: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 500)), http.StatusCreated)
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusAccepted)

	resp, err := http.Get(c.base + "/v1/jobs/j1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	c.doJSON("DELETE", "/v1/jobs/j1", nil, http.StatusOK)
	frames := readSSE(t, bufio.NewReader(resp.Body))
	if len(frames) == 0 || frames[len(frames)-1].event != stateCanceled {
		t.Fatalf("frames = %+v, want trailing canceled", frames)
	}
}
