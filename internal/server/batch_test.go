package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestBatchTraceRenderedOnFetch: a batch keeps its tracer and renders the
// exports on the first trace fetch. Before the run there is no trace; two
// fetches return the same bytes, and they are an eager render's.
func TestBatchTraceRenderedOnFetch(t *testing.T) {
	if _, _, ok := newBatch("b0", "d1").trace(); ok {
		t.Fatal("a batch that has not run has a trace")
	}
	s, c := newTestServer(t, Config{Threads: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 1500)), http.StatusCreated)
	id := c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4},{"eps":3,"minpts":4}]}`, http.StatusAccepted)["id"].(string)
	c.waitDone(id)
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	b := j.batch
	b.mu.Lock()
	tr, rendered := b.tracer, b.traceChrome != nil
	b.mu.Unlock()
	if tr == nil || rendered {
		t.Fatalf("after the run: tracer %v, rendered before any fetch %v", tr, rendered)
	}
	wantChrome, wantText := renderTrace(tr)
	for _, format := range []string{"", "?format=text", "", "?format=text"} {
		code, _, got := c.do("GET", "/v1/jobs/"+id+"/trace"+format, nil)
		want := wantChrome
		if format != "" {
			want = wantText
		}
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("trace%s = %d, %d bytes; want the eager render's %d bytes", format, code, len(got), len(want))
		}
	}
	c1, x1, _ := b.trace()
	c2, x2, _ := b.trace()
	if &c1[0] != &c2[0] || &x1[0] != &x2[0] {
		t.Fatal("a second fetch rendered the trace again")
	}
}
