package prom_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vdbscan/internal/data"
	"vdbscan/internal/dataio"
	"vdbscan/internal/obs/prom"
	"vdbscan/internal/server"
)

// pointsCSV returns n synthetic points as an upload body.
func pointsCSV(t *testing.T, n int) []byte {
	t.Helper()
	ds, err := data.Generate(data.SynthConfig{Class: data.ClassCF, N: n, NoiseFrac: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// call sends one request to ts and fails the test unless it answers want.
func call(t *testing.T, ts *httptest.Server, method, path string, body []byte, want int) (http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, path, resp.StatusCode, want, out)
	}
	return resp.Header, out
}

// TestMetricsExposition validates vdbscand's full scrape with the strict
// parser and checks the exposition's requirements: at least five histogram
// families, each labeled {dataset} and nothing else; float uptime; a start
// time gauge; and per-run observations landing in the right series.
func TestMetricsExposition(t *testing.T) {
	s := server.New(server.Config{Threads: 2, RefreezePoints: 200})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	call(t, ts, "POST", "/v1/datasets", pointsCSV(t, 1500), http.StatusCreated)
	call(t, ts, "POST", "/v1/datasets/d1/jobs",
		[]byte(`{"variants":[{"eps":2,"minpts":8},{"eps":3,"minpts":4},{"eps":4,"minpts":4}]}`),
		http.StatusAccepted)
	for {
		_, out := call(t, ts, "GET", "/v1/jobs/j1?wait=10s", nil, http.StatusOK)
		var doc struct{ State string }
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.State == "done" {
			break
		}
		if doc.State != "queued" && doc.State != "running" || ctx.Err() != nil {
			t.Fatalf("job j1 is %s", out)
		}
	}
	// Trip a background refreeze so the refreeze histogram has a sample;
	// Drain waits for it to install.
	call(t, ts, "POST", "/v1/datasets/d1/points", pointsCSV(t, 250), http.StatusAccepted)
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	hdr, body := call(t, ts, "GET", "/metrics", nil, http.StatusOK)
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type = %q, want the 0.0.4 text format", ct)
	}
	exp, err := prom.Parse(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition fails the in-tree lint: %v\n%s", err, body)
	}
	if n := exp.Histograms(); n < 5 {
		t.Errorf("histogram families = %d, want >= 5", n)
	}
	for _, fam := range exp.Families {
		if fam.Type != "histogram" || len(fam.Samples) == 0 {
			continue
		}
		for _, smp := range fam.Samples {
			if _, ok := smp.Labels["dataset"]; !ok {
				t.Errorf("histogram %s sample %v lacks label \"dataset\"", fam.Name, smp.Labels)
			}
			for l := range smp.Labels {
				if l != "dataset" && l != "le" {
					t.Errorf("histogram %s carries label %q beyond {dataset}", fam.Name, l)
				}
			}
		}
	}

	labels := map[string]string{"dataset": "d1"}
	for _, h := range []struct {
		name string
		want float64 // minimum expected _count
	}{
		{"vdbscand_job_queue_wait_seconds", 1},
		{"vdbscand_batch_run_seconds", 1},
		{"vdbscand_variant_run_seconds", 3},
		// Every variant emits a Done event, but a near-total-reuse variant
		// may do arbitrarily few searches, so only require one observation.
		{"vdbscand_variant_eps_searches", 1},
	} {
		lb := map[string]string{}
		for k, v := range labels {
			lb[k] = v
		}
		got, ok := exp.Value(h.name+"_count", lb)
		if !ok {
			t.Errorf("no %s_count sample for %v", h.name, labels)
			continue
		}
		if got < h.want {
			t.Errorf("%s_count = %g, want >= %g", h.name, got, h.want)
		}
	}
	if got, ok := exp.Value("vdbscand_dataset_refreeze_seconds_count",
		map[string]string{"dataset": "d1"}); !ok || got < 1 {
		t.Errorf("refreeze histogram count = %g (found=%v), want >= 1", got, ok)
	}

	// The uptime truncation fix: float seconds, nonzero well under 1s of
	// runtime, plus an absolute start-time gauge for counter-reset math.
	up, ok := exp.Value("vdbscand_uptime_seconds", nil)
	if !ok || up <= 0 {
		t.Errorf("uptime = %g (found=%v), want > 0", up, ok)
	}
	if up != math.Trunc(up) {
		// Sub-second resolution observed directly; if the scrape landed on
		// an exact second boundary the > 0 check above already covers the
		// old always-0-at-startup failure.
		t.Log("uptime has sub-second resolution:", up)
	}
	startTS, ok := exp.Value("vdbscand_start_time_seconds", nil)
	if !ok {
		t.Fatal("no vdbscand_start_time_seconds gauge")
	}
	now := float64(time.Now().UnixNano()) / 1e9
	if d := now - startTS; d < 0 || d > 300 {
		t.Errorf("start_time_seconds is %.1fs from now", d)
	}

	// SSE counters join the exposition once a stream has been served.
	if v, ok := exp.Value("vdbscand_sse_frames_total", map[string]string{"event": "queued"}); !ok || v < 1 {
		t.Errorf("sse queued frames = %g (found=%v), want >= 1", v, ok)
	}
}
