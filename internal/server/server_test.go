package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vdbscan"
	"vdbscan/internal/data"
	"vdbscan/internal/dataio"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testPoints(t testing.TB, n int) []vdbscan.Point {
	t.Helper()
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: n, NoiseFrac: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Points
}

func pointsCSV(t testing.TB, pts []vdbscan.Point) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, &data.Dataset{Name: "test", Points: pts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testClient wraps the httptest base URL with JSON conveniences. Every call
// fails the test on transport errors; HTTP status is returned for the test
// to assert on.
type testClient struct {
	t    *testing.T
	base string
	key  string // API key sent as Authorization: Bearer when non-empty
}

// withKey returns a copy of the client authenticating as the given tenant.
func (c *testClient) withKey(key string) *testClient {
	return &testClient{t: c.t, base: c.base, key: key}
}

func (c *testClient) do(method, path string, body []byte) (int, http.Header, []byte) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.key != "" {
		req.Header.Set("Authorization", "Bearer "+c.key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp.StatusCode, resp.Header, out
}

func (c *testClient) doJSON(method, path string, body []byte, wantCode int) map[string]any {
	c.t.Helper()
	code, _, out := c.do(method, path, body)
	if code != wantCode {
		c.t.Fatalf("%s %s = %d, want %d; body: %s", method, path, code, wantCode, out)
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		c.t.Fatalf("%s %s: bad JSON %q: %v", method, path, out, err)
	}
	return doc
}

func (c *testClient) submitJob(datasetID string, body string, wantCode int) map[string]any {
	c.t.Helper()
	return c.doJSON("POST", "/v1/datasets/"+datasetID+"/jobs", []byte(body), wantCode)
}

// waitDone long-polls the job until it turns terminal.
func (c *testClient) waitDone(jobID string) map[string]any {
	c.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		doc := c.doJSON("GET", "/v1/jobs/"+jobID+"?wait=10s", nil, http.StatusOK)
		switch doc["state"] {
		case stateDone, stateFailed, stateCanceled:
			return doc
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %v after 2m", jobID, doc["state"])
		}
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s, c, start := newParkedServer(t, cfg)
	start()
	return s, c
}

// newParkedServer is newTestServer with the batch runners not started: every
// admitted job stays queued, and jobs for one dataset share its open batch,
// until the test calls start. Cleanup starts them before it drains.
func newParkedServer(t *testing.T, cfg Config) (*Server, *testClient, func()) {
	t.Helper()
	s := newServer(cfg)
	var once sync.Once
	start := func() { once.Do(s.startRunners) }
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		start()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
		s.Close()
		ts.Close()
	})
	return s, &testClient{t: t, base: ts.URL}, start
}

// scrub replaces run-dependent fields (timestamps, durations, reuse
// fractions) with stable placeholders so documents golden-compare.
func scrub(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "created", "started", "finished":
				if s, ok := val.(string); ok && s != "" {
					x[k] = "<ts>"
				}
			case "duration_ms":
				x[k] = 0
			case "fraction_reused":
				if f, ok := val.(float64); ok && f > 0 {
					x[k] = "<reused>"
				}
			case "eps_searches", "candidates_examined", "charge":
				// Work counters vary with index traversal order; the
				// charge identity (= searches + candidates) is pinned
				// separately by TestQuotaChargesMatchWork.
				if f, ok := val.(float64); ok && f > 0 {
					x[k] = "<work>"
				}
			default:
				x[k] = scrub(val)
			}
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrub(x[i])
		}
		return x
	default:
		return v
	}
}

func checkGolden(t *testing.T, name string, doc map[string]any) {
	t.Helper()
	got, err := json.MarshalIndent(scrub(doc), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, name, append(got, '\n'))
}

// compareGolden compares got with testdata/name, or rewrites the file under
// -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestJobLifecycleGolden drives the happy path end to end — upload, submit,
// long-poll to completion — and golden-compares every document shape.
func TestJobLifecycleGolden(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1})

	dsDoc := c.doJSON("POST", "/v1/datasets?name=tec", pointsCSV(t, testPoints(t, 2000)), http.StatusCreated)
	checkGolden(t, "dataset_created.golden.json", dsDoc)
	if dsDoc["id"] != "d1" {
		t.Fatalf("dataset id = %v", dsDoc["id"])
	}

	sub := c.submitJob("d1", `{"variants":[{"eps":2,"minpts":8},{"eps":3,"minpts":4},{"eps":4,"minpts":4}]}`,
		http.StatusAccepted)
	checkGolden(t, "job_submitted.golden.json", sub)
	if sub["id"] != "j1" || sub["state"] != stateQueued {
		t.Fatalf("submit doc: %v", sub)
	}

	done := c.waitDone("j1")
	checkGolden(t, "job_done.golden.json", done)
	if done["state"] != stateDone {
		t.Fatalf("job finished %v (%v)", done["state"], done["error"])
	}

	// Labels for a finished variant come back as index,label CSV.
	code, hdr, labels := c.do("GET", "/v1/jobs/j1/labels?variant=1", nil)
	if code != http.StatusOK {
		t.Fatalf("labels = %d: %s", code, labels)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("labels content-type = %q", ct)
	}
	if !bytes.HasPrefix(labels, []byte("# clusters: ")) {
		t.Errorf("labels CSV header missing: %.60q", labels)
	}

	// The trace endpoint serves both renderings of the batch's run.
	code, _, chrome := c.do("GET", "/v1/jobs/j1/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace = %d", code)
	}
	var tr map[string]any
	if err := json.Unmarshal(chrome, &tr); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if _, ok := tr["traceEvents"]; !ok {
		t.Error("chrome trace lacks traceEvents")
	}
	code, _, text := c.do("GET", "/v1/jobs/j1/trace?format=text", nil)
	if code != http.StatusOK || !strings.Contains(string(text), "variants") {
		t.Errorf("text trace = %d: %.80q", code, text)
	}
}

// TestDatasetValidation covers the 4xx surface of the dataset resources.
func TestDatasetValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1})

	code, _, body := c.do("POST", "/v1/datasets", []byte("not,a,number\n"))
	if code != http.StatusBadRequest {
		t.Errorf("bad CSV = %d: %s", code, body)
	}
	code, _, _ = c.do("POST", "/v1/datasets", []byte(""))
	if code != http.StatusBadRequest {
		t.Errorf("empty dataset = %d", code)
	}
	code, _, _ = c.do("GET", "/v1/datasets/d99", nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown dataset = %d", code)
	}

	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 100)), http.StatusCreated)
	c.submitJob("d1", `{"variants":[]}`, http.StatusBadRequest)
	c.submitJob("d1", `{"variants":[{"eps":-1,"minpts":4}]}`, http.StatusBadRequest)
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":0}]}`, http.StatusBadRequest)
	c.submitJob("d9", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusNotFound)

	code, _, _ = c.do("DELETE", "/v1/datasets/d1", nil)
	if code != http.StatusNoContent {
		t.Errorf("delete = %d", code)
	}
	code, _, _ = c.do("GET", "/v1/datasets/d1", nil)
	if code != http.StatusNotFound {
		t.Errorf("get after delete = %d", code)
	}
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusNotFound)
}

// TestJobRequestBounds covers job fields at the edge of their integer
// range: a timeout_ms whose Duration would overflow is a 400 naming the
// field on both surfaces, the largest one that fits is accepted, and a
// minpts no cell count can reach finishes done, all noise, with the
// daemon still answering.
func TestJobRequestBounds(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 2})
	const n = 500
	ds := c.doJSON("POST", "/v2/datasets", pointsCSV(t, testPoints(t, n)), http.StatusCreated)
	dsID := ds["id"].(string)

	over := fmt.Sprintf(`{"variants":[{"eps":2,"minpts":4}],"timeout_ms":%d}`, maxTimeoutMS+1)
	code, _, body := c.do("POST", "/v1/datasets/"+dsID+"/jobs", []byte(over))
	var flat errorDoc
	if code != http.StatusBadRequest || json.Unmarshal(body, &flat) != nil || !strings.Contains(flat.Error, "timeout_ms") {
		t.Errorf("/v1 overflowing timeout_ms = %d %s, want a flat 400 naming timeout_ms", code, body)
	}
	code, _, body = c.do("POST", "/v2/datasets/"+dsID+"/jobs", []byte(over))
	if code != http.StatusBadRequest {
		t.Errorf("/v2 overflowing timeout_ms = %d %s, want 400", code, body)
	} else if ec, msg, _ := envelope(t, body); ec != errCodeBadRequest || !strings.Contains(msg, "timeout_ms") {
		t.Errorf("/v2 overflowing timeout_ms envelope = %s %q", ec, msg)
	}
	fits := c.submitJobV2(dsID, fmt.Sprintf(`{"variants":[{"eps":2,"minpts":4}],"timeout_ms":%d}`, maxTimeoutMS), http.StatusAccepted)
	if done := c.waitDoneV2(fits["id"].(string)); done["state"] != stateDone {
		t.Errorf("largest timeout_ms: job %v (%v)", done["state"], done["error"])
	}

	huge := c.submitJobV2(dsID, `{"variants":[{"eps":2,"minpts":2147483648}]}`, http.StatusAccepted)
	done := c.waitDoneV2(huge["id"].(string))
	if done["state"] != stateDone {
		t.Fatalf("minpts 2^31: job %v (%v)", done["state"], done["error"])
	}
	if r := done["results"].([]any)[0].(map[string]any); r["clusters"].(float64) != 0 || r["noise"].(float64) != n {
		t.Errorf("minpts 2^31: %v clusters, %v noise, want 0 and %d", r["clusters"], r["noise"], n)
	}
	if code, _, _ := c.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after a minpts 2^31 job = %d", code)
	}
}

// TestUploadIndexKind covers the ?index= upload parameter now that every
// upload is indexed on the cell grid: ?index=rtree (or any kind but grid)
// is a 400 naming index on both surfaces — a flat document on /v1, the
// envelope on /v2 — while ?index=grid, in any spelling the CLIs accept,
// and no parameter at all are 201 with "index":"grid", and the snapshot
// holds a grid index.
func TestUploadIndexKind(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{Threads: 1, DataDir: dir})
	csv := pointsCSV(t, testPoints(t, 1500))

	for _, kind := range []string{"rtree", "RTree", "kdtree"} {
		code, _, body := c.do("POST", "/v1/datasets?index="+kind, csv)
		var flat errorDoc
		if code != http.StatusBadRequest || json.Unmarshal(body, &flat) != nil || !strings.Contains(flat.Error, "index") {
			t.Errorf("/v1 ?index=%s = %d %s, want a flat 400 naming index", kind, code, body)
		}
		code, _, body = c.do("POST", "/v2/datasets?index="+kind, csv)
		if code != http.StatusBadRequest {
			t.Errorf("/v2 ?index=%s = %d %s, want 400", kind, code, body)
		} else if ec, msg, _ := envelope(t, body); ec != errCodeBadRequest || !strings.Contains(msg, "index") {
			t.Errorf("/v2 ?index=%s envelope = %s %q", kind, ec, msg)
		}
	}

	for _, path := range []string{"/v1/datasets?index=grid", "/v2/datasets?index=%20GRID", "/v1/datasets?r=16"} {
		d := c.doJSON("POST", path, csv, http.StatusCreated)
		if d["index"] != "grid" {
			t.Errorf("%s: dataset doc reports index %v, want grid", path, d["index"])
		}
		_, info, err := vdbscan.LoadSnapshot(filepath.Join(dir, d["id"].(string), "snapshot"))
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != vdbscan.IndexGrid {
			t.Errorf("%s: snapshot holds a %v index", path, info.Kind)
		}
	}
	if n := len(c.doJSON("GET", "/v1/datasets", nil, http.StatusOK)["datasets"].([]any)); n != 3 {
		t.Errorf("%d datasets listed, want 3: a refused upload must create none", n)
	}
}

// TestJobTilesParam covers the retired per-job "tiles" field: a body that
// still sends it — negative or not — is accepted, the field is ignored,
// and the labels are Index.Cluster's bytes.
func TestJobTilesParam(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 2})
	pts := testPoints(t, 1500)
	doc := c.doJSON("POST", "/v1/datasets?name=tl", pointsCSV(t, pts), http.StatusCreated)
	ds := doc["id"].(string)

	ix := vdbscan.NewIndex(pts)
	want := map[int][]byte{}
	for v, p := range []vdbscan.Params{{Eps: 2, MinPts: 8}, {Eps: 3, MinPts: 4}} {
		res, err := ix.Cluster(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dataio.WriteLabelsCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		want[v] = buf.Bytes()
	}
	for _, tiles := range []int{-1, 4} {
		job := fmt.Sprintf(`{"variants":[{"eps":2,"minpts":8},{"eps":3,"minpts":4}],"tiles":%d}`, tiles)
		sub := c.submitJob(ds, job, http.StatusAccepted)
		done := c.waitDone(sub["id"].(string))
		if done["state"] != stateDone {
			t.Fatalf("tiles=%d job finished %v (%v)", tiles, done["state"], done["error"])
		}
		for v := range want {
			code, _, out := c.do("GET", fmt.Sprintf("/v1/jobs/%s/labels?variant=%d", sub["id"], v), nil)
			if code != http.StatusOK {
				t.Fatalf("tiles=%d labels = %d: %s", tiles, code, out)
			}
			if !bytes.Equal(out, want[v]) {
				t.Errorf("tiles=%d variant %d: labels differ from Index.Cluster's", tiles, v)
			}
		}
	}
}

// TestSizedResponses: labels and trace bodies are sent with an exact
// Content-Length, not chunked, on /v1 and /v2. Every body is well over
// net/http's 2 KB pre-chunking buffer (a 32-variant job makes the text
// trace that long), and the labels are WriteLabelsCSV's bytes.
func TestSizedResponses(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 2})
	pts := testPoints(t, 1500)
	ds := c.doJSON("POST", "/v1/datasets?name=sized", pointsCSV(t, pts), http.StatusCreated)["id"].(string)
	res, err := vdbscan.NewIndex(pts).Cluster(vdbscan.Params{Eps: 2, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dataio.WriteLabelsCSV(&want, res); err != nil {
		t.Fatal(err)
	}
	var variants []string
	for eps := 2; eps <= 9; eps++ {
		for _, minPts := range []int{4, 8, 16, 32} {
			variants = append(variants, fmt.Sprintf(`{"eps":%d,"minpts":%d}`, eps, minPts))
		}
	}
	job := c.submitJob(ds, `{"variants":[`+strings.Join(variants, ",")+`]}`, http.StatusAccepted)["id"].(string)
	if done := c.waitDone(job); done["state"] != stateDone {
		t.Fatalf("job finished %v (%v)", done["state"], done["error"])
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(c.base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, %v", path, resp.StatusCode, err)
		}
		if len(body) < 3<<10 {
			t.Fatalf("%s is %d B; the test needs a body far over 2 KB", path, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q; body is %d B",
				path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		return body
	}
	for _, version := range []string{"/v1", "/v2"} {
		if got := get(version + "/jobs/" + job + "/labels?variant=0"); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s labels differ from WriteLabelsCSV's bytes", version)
		}
		get(version + "/jobs/" + job + "/trace")
		get(version + "/jobs/" + job + "/trace?format=text")
	}
}

// TestOverflowingSpanUpload: a dataset whose finite points span more than
// the float range (x = ±1e308) is accepted and its jobs finish done, with
// the far points noise and the two near the origin one cluster. The grid
// once refused to index it, failing every job on the accepted upload.
func TestOverflowingSpanUpload(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 2})
	csv := []byte("-1e308,0\n1e308,0\n0,0\n0,1\n")
	ds := c.doJSON("POST", "/v1/datasets?name=wide", csv, http.StatusCreated)
	sub := c.submitJob(ds["id"].(string), `{"variants":[{"eps":2,"minpts":2}]}`, http.StatusAccepted)
	done := c.waitDone(sub["id"].(string))
	if done["state"] != stateDone {
		t.Fatalf("job on a ±1e308 dataset finished %v (%v)", done["state"], done["error"])
	}
	r := done["results"].([]any)[0].(map[string]any)
	if r["noise"].(float64) != 2 || r["clusters"].(float64) != 1 {
		t.Errorf("±1e308 dataset: %v clusters, %v noise, want 1 and 2", r["clusters"], r["noise"])
	}
}

// TestBackpressure429 pins the bounded-queue contract: the QueueDepth+1-th
// submission is rejected with 429 and a Retry-After hint, and canceling a
// queued job frees its slot. The runners are parked, so the jobs stay queued.
func TestBackpressure429(t *testing.T) {
	s, c, _ := newParkedServer(t, Config{Threads: 1, QueueDepth: 2, Runners: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 200)), http.StatusCreated)

	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusAccepted)
	c.submitJob("d1", `{"variants":[{"eps":3,"minpts":4}]}`, http.StatusAccepted)

	code, hdr, body := c.do("POST", "/v1/datasets/d1/jobs", []byte(`{"variants":[{"eps":4,"minpts":4}]}`))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429; body: %s", code, body)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	if got := s.mx.jobsRejected.Value(); got != 1 {
		t.Errorf("jobsRejected = %g", got)
	}

	// Canceling a queued job releases its admission slot.
	c.doJSON("DELETE", "/v1/jobs/j1", nil, http.StatusOK)
	doc := c.submitJob("d1", `{"variants":[{"eps":4,"minpts":4}]}`, http.StatusAccepted)
	if doc["state"] != stateQueued {
		t.Errorf("resubmit state = %v", doc["state"])
	}
}

// TestRetryAfterSeconds pins the hint: one second, never Retry-After: 0
// (which many clients read as "retry immediately", defeating the backoff),
// whatever the ignored BatchWindow says.
func TestRetryAfterSeconds(t *testing.T) {
	for _, window := range []time.Duration{
		0, 50 * time.Millisecond, time.Second, 1500 * time.Millisecond, time.Hour,
	} {
		s := &Server{cfg: Config{BatchWindow: window}}
		if got := s.retryAfterSeconds(); got != 1 {
			t.Errorf("retryAfterSeconds(window=%v) = %d, want 1", window, got)
		}
	}
}

// TestDrainingResponsesCarryRetryAfter: every 503 rejected during drain —
// upload, append, job submit — must carry a Retry-After hint of one second,
// so retrying clients and load balancers actually back off. BatchWindow is
// ignored.
func TestDrainingResponsesCarryRetryAfter(t *testing.T) {
	s, c := newTestServer(t, Config{Threads: 1, BatchWindow: 1500 * time.Millisecond})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 200)), http.StatusCreated)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, tc := range []struct {
		name, method, path string
		body               []byte
	}{
		{"upload", "POST", "/v1/datasets", pointsCSV(t, testPoints(t, 10))},
		{"append", "POST", "/v1/datasets/d1/points", pointsCSV(t, testPoints(t, 10))},
		{"submit", "POST", "/v1/datasets/d1/jobs", []byte(`{"variants":[{"eps":2,"minpts":4}]}`)},
	} {
		code, hdr, body := c.do(tc.method, tc.path, tc.body)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s while draining = %d, want 503; body: %s", tc.name, code, body)
			continue
		}
		if ra := hdr.Get("Retry-After"); ra != "1" {
			t.Errorf("%s 503 Retry-After = %q, want \"1\"", tc.name, ra)
		}
	}
}

// TestJobDeadline: a job whose deadline expires while queued (the runners
// are parked) fails with a deadline error and releases its queue slot.
func TestJobDeadline(t *testing.T) {
	s, c, _ := newParkedServer(t, Config{Threads: 1, Runners: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 200)), http.StatusCreated)

	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}],"timeout_ms":30}`, http.StatusAccepted)
	doc := c.waitDone("j1")
	if doc["state"] != stateFailed {
		t.Fatalf("state = %v, want failed", doc["state"])
	}
	if !strings.Contains(doc["error"].(string), "deadline") {
		t.Errorf("error = %v", doc["error"])
	}
	if got := s.queueDepth(); got != 0 {
		t.Errorf("queue depth after expiry = %d", got)
	}
	if got := s.mx.jobsFailed.Value(); got != 1 {
		t.Errorf("jobsFailed = %g", got)
	}
}

// TestCancelMidRun submits a deliberately heavy job, waits until it is
// running, cancels it, and requires the server to drain promptly — i.e. the
// cancel reached the in-flight ClusterVariants run through the batch context.
func TestCancelMidRun(t *testing.T) {
	s, c := newTestServer(t, Config{Threads: 1, Runners: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 20000)), http.StatusCreated)

	variants := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		variants = append(variants, fmt.Sprintf(`{"eps":%d,"minpts":4}`, 6+i))
	}
	c.submitJob("d1", `{"variants":[`+strings.Join(variants, ",")+`]}`, http.StatusAccepted)

	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := c.doJSON("GET", "/v1/jobs/j1", nil, http.StatusOK)
		if doc["state"] == stateRunning {
			break
		}
		if doc["state"] != stateQueued {
			t.Fatalf("job reached %v before it could be canceled mid-run", doc["state"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	doc := c.doJSON("DELETE", "/v1/jobs/j1", nil, http.StatusOK)
	if doc["state"] != stateCanceled {
		t.Fatalf("state after cancel = %v", doc["state"])
	}

	// The canceled run must abort: drain completes long before the full
	// 10-variant sweep over 20k points would.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after cancel: %v", err)
	}
	if got := s.mx.jobsCompleted.Value(); got != 0 {
		t.Errorf("jobsCompleted = %g after cancel", got)
	}
	if got := s.mx.jobsCanceled.Value(); got != 1 {
		t.Errorf("jobsCanceled = %g", got)
	}

	// No labels for a canceled job.
	code, _, _ := c.do("GET", "/v1/jobs/j1/labels", nil)
	if code != http.StatusConflict {
		t.Errorf("labels after cancel = %d, want 409", code)
	}
}

// TestCoalescingWindow: two jobs for the same dataset queued behind busy
// (here: parked) runners share one ClusterVariants run over the union of
// their variants, observable in the job documents, the shared trace, and
// the batch counters — and their labels match a direct union run exactly.
func TestCoalescingWindow(t *testing.T) {
	pts := testPoints(t, 2000)
	s, c, start := newParkedServer(t, Config{Threads: 1, Runners: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, pts), http.StatusCreated)

	a := c.submitJob("d1", `{"variants":[{"eps":2,"minpts":8},{"eps":3,"minpts":4}]}`, http.StatusAccepted)
	b := c.submitJob("d1", `{"variants":[{"eps":3,"minpts":4},{"eps":4,"minpts":4}]}`, http.StatusAccepted)
	if a["batch"] != b["batch"] {
		t.Fatalf("jobs not coalesced: batches %v vs %v", a["batch"], b["batch"])
	}
	start()

	da := c.waitDone(a["id"].(string))
	db := c.waitDone(b["id"].(string))
	for name, doc := range map[string]map[string]any{"a": da, "b": db} {
		if doc["state"] != stateDone {
			t.Fatalf("job %s: %v (%v)", name, doc["state"], doc["error"])
		}
		if got := doc["batch_jobs"].(float64); got != 2 {
			t.Errorf("job %s batch_jobs = %v, want 2", name, got)
		}
		// Union of {2/8, 3/4} and {3/4, 4/4} deduplicates to 3 variants.
		if got := doc["batch_variants"].(float64); got != 3 {
			t.Errorf("job %s batch_variants = %v, want 3", name, got)
		}
	}

	if got := s.mx.batchesRun.Value(); got != 1 {
		t.Errorf("batchesRun = %g, want 1", got)
	}
	if got := s.mx.jobsCoalesced.Value(); got != 2 {
		t.Errorf("jobsCoalesced = %g, want 2", got)
	}
	if got := s.mx.variantsRun.Value(); got != 3 {
		t.Errorf("variantsRun = %g, want 3 (union)", got)
	}

	// Coalesced jobs share one trace: the exports must be identical bytes.
	_, _, trA := c.do("GET", "/v1/jobs/"+a["id"].(string)+"/trace?format=text", nil)
	_, _, trB := c.do("GET", "/v1/jobs/"+b["id"].(string)+"/trace?format=text", nil)
	if !bytes.Equal(trA, trB) {
		t.Error("coalesced jobs returned different traces")
	}

	// Labels must equal a direct single-threaded run of the same union, in
	// admission order: [2/8, 3/4, 4/4].
	union := []vdbscan.Params{{Eps: 2, MinPts: 8}, {Eps: 3, MinPts: 4}, {Eps: 4, MinPts: 4}}
	direct, err := vdbscan.NewIndex(pts).ClusterVariants(union, vdbscan.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	check := func(jobID string, variant, unionSlot int) {
		t.Helper()
		code, _, got := c.do("GET", fmt.Sprintf("/v1/jobs/%s/labels?variant=%d", jobID, variant), nil)
		if code != http.StatusOK {
			t.Fatalf("labels %s/%d = %d", jobID, variant, code)
		}
		var want bytes.Buffer
		if err := dataio.WriteLabelsCSV(&want, direct.Results[unionSlot].Clustering); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("labels %s/%d differ from direct union run slot %d", jobID, variant, unionSlot)
		}
	}
	check(a["id"].(string), 0, 0)
	check(a["id"].(string), 1, 1)
	check(b["id"].(string), 0, 1)
	check(b["id"].(string), 1, 2)
}

// TestJobJoiningEmptiedBatch: a job submitted after every member of its
// dataset's open batch has left opens a fresh batch. It neither runs on the
// emptied batch's canceled context nor carries the departed job's variant,
// and the emptied batch never runs.
func TestJobJoiningEmptiedBatch(t *testing.T) {
	s, c, start := newParkedServer(t, Config{Threads: 1, Runners: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 500)), http.StatusCreated)

	a := c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusAccepted)
	c.doJSON("DELETE", "/v1/jobs/"+a["id"].(string), nil, http.StatusOK)
	b := c.submitJob("d1", `{"variants":[{"eps":3,"minpts":4}]}`, http.StatusAccepted)
	if b["batch"] == a["batch"] {
		t.Fatalf("job joined the emptied batch %v", a["batch"])
	}
	start()
	doc := c.waitDone(b["id"].(string))
	if doc["state"] != stateDone {
		t.Fatalf("job: %v (%v)", doc["state"], doc["error"])
	}
	if got := doc["batch_variants"].(float64); got != 1 {
		t.Errorf("batch_variants = %v, want 1", got)
	}
	if got := s.mx.batchesRun.Value(); got != 1 {
		t.Errorf("batchesRun = %g, want 1", got)
	}
}

// TestColdJobRunsOnIdleServer: a job the library cannot serve, submitted to
// an idle server, runs at once; the ignored BatchWindow holds nothing back.
func TestColdJobRunsOnIdleServer(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1, BatchWindow: time.Hour})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 500)), http.StatusCreated)
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusAccepted)
	doc := c.doJSON("GET", "/v1/jobs/j1?wait=30s", nil, http.StatusOK)
	if doc["state"] != stateDone {
		t.Fatalf("cold job after 30s: %v (%v)", doc["state"], doc["error"])
	}
}

// TestConcurrentClients hammers the service with 8 parallel clients (the
// acceptance bar) and cross-checks every returned label set against a
// direct single-threaded ClusterVariants run of the same parameters. Jobs
// that queue behind the busy runners coalesce, and a variant's labels do
// not depend on the batch it ran in, so the results must be identical.
func TestConcurrentClients(t *testing.T) {
	const clients = 8
	pts := testPoints(t, 3000)
	_, c := newTestServer(t, Config{
		Threads:    1,
		QueueDepth: 64,
		Runners:    2,
	})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, pts), http.StatusCreated)

	idx := vdbscan.NewIndex(pts)
	paramsFor := func(i int) []vdbscan.Params {
		return []vdbscan.Params{
			{Eps: 2 + 0.25*float64(i), MinPts: 4},
			{Eps: 3 + 0.25*float64(i), MinPts: 8},
		}
	}
	want := make([][]bytes.Buffer, clients)
	for i := 0; i < clients; i++ {
		run, err := idx.ClusterVariants(paramsFor(i), vdbscan.WithThreads(1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]bytes.Buffer, len(run.Results))
		for v := range run.Results {
			if err := dataio.WriteLabelsCSV(&want[i][v], run.Results[v].Clustering); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ps := paramsFor(i)
			specs := make([]string, len(ps))
			for v, p := range ps {
				specs[v] = fmt.Sprintf(`{"eps":%g,"minpts":%d}`, p.Eps, p.MinPts)
			}
			doc := c.submitJob("d1", `{"variants":[`+strings.Join(specs, ",")+`]}`, http.StatusAccepted)
			jobID := doc["id"].(string)
			done := c.waitDone(jobID)
			if done["state"] != stateDone {
				errs <- fmt.Errorf("client %d: job %s %v (%v)", i, jobID, done["state"], done["error"])
				return
			}
			for v := range ps {
				code, _, got := c.do("GET", fmt.Sprintf("/v1/jobs/%s/labels?variant=%d", jobID, v), nil)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d: labels %d", i, code)
					return
				}
				if !bytes.Equal(got, want[i][v].Bytes()) {
					errs <- fmt.Errorf("client %d variant %d: labels differ from direct run", i, v)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDrainStopsAdmissionAndFlushesRefreeze pins the SIGTERM semantics:
// draining rejects new work with 503 and folds staged appends into the
// index before Drain returns.
func TestDrainStopsAdmissionAndFlushesRefreeze(t *testing.T) {
	s, c := newTestServer(t, Config{
		Threads:        1,
		RefreezePoints: 1 << 20, // never auto-refreeze; drain must flush
	})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 1000)), http.StatusCreated)

	extra := testPoints(t, 1050)[1000:]
	app := c.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, extra), http.StatusAccepted)
	if got := app["staged"].(float64); got != 50 {
		t.Fatalf("staged = %v", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	doc := c.doJSON("GET", "/v1/datasets/d1", nil, http.StatusOK)
	if got := doc["points"].(float64); got != 1050 {
		t.Errorf("points after drain = %v, want 1050", got)
	}
	if got := doc["staged"].(float64); got != 0 {
		t.Errorf("staged after drain = %v, want 0", got)
	}
	if got := doc["version"].(float64); got != 2 {
		t.Errorf("version after drain = %v, want 2", got)
	}

	// Admission is closed.
	code, _, _ := c.do("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 10)))
	if code != http.StatusServiceUnavailable {
		t.Errorf("upload while draining = %d, want 503", code)
	}
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4}]}`, http.StatusServiceUnavailable)
	health := c.doJSON("GET", "/healthz", nil, http.StatusOK)
	if health["status"] != "draining" {
		t.Errorf("healthz status = %v", health["status"])
	}
}

// TestBackgroundRefreeze: appends crossing the threshold trigger an async
// index rebuild that installs a new version with no staged leftovers.
func TestBackgroundRefreeze(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1, RefreezePoints: 200})
	all := testPoints(t, 750)
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, all[:500]), http.StatusCreated)

	app := c.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, all[500:]), http.StatusAccepted)
	if app["refreezing"] != true {
		t.Fatalf("append did not kick a re-freeze: %v", app)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		doc := c.doJSON("GET", "/v1/datasets/d1", nil, http.StatusOK)
		if doc["version"].(float64) == 2 && doc["refreezing"] == false {
			if got := doc["points"].(float64); got != 750 {
				t.Fatalf("points after re-freeze = %v, want 750", got)
			}
			if got := doc["staged"].(float64); got != 0 {
				t.Fatalf("staged after re-freeze = %v, want 0", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-freeze never installed: %v", doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsEndpoint: the text exposition carries both the server counters
// and the accumulated vdbscan work counters.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 1000)), http.StatusCreated)
	c.submitJob("d1", `{"variants":[{"eps":2,"minpts":4},{"eps":3,"minpts":4}]}`, http.StatusAccepted)
	c.waitDone("j1")

	code, _, body := c.do("GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"vdbscand_jobs_accepted_total 1",
		"vdbscand_jobs_completed_total 1",
		"vdbscand_batches_run_total 1",
		"vdbscand_variants_run_total 2",
		"vdbscand_datasets_created_total 1",
		"vdbscan_neighbor_searches_total ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Work counters must reflect the run (a 2-variant sweep does searches).
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "vdbscan_neighbor_searches_total ") {
			if strings.TrimPrefix(line, "vdbscan_neighbor_searches_total ") == "0" {
				t.Error("neighbor searches not accumulated into /metrics")
			}
		}
	}
}
