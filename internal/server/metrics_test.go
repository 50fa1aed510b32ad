package server

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMetricsExpositionGolden pins a fresh server's /metrics body: every
// family's HELP and TYPE line, their order, and every sample a fresh scrape
// carries. Gauge values are live readings (uptime, start time), so they are
// masked; counter values are kept, which pins that each unlabeled counter
// reads 0 (and the scrape counter 1) before any work. Regenerate with
// -update after a deliberate exposition change.
func TestMetricsExpositionGolden(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1})
	code, _, body := c.do("GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var got bytes.Buffer
	typ := ""
	for _, line := range strings.SplitAfter(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typ = f[3]
		}
		if typ == "gauge" && !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i] + " <gauge>\n"
			}
		}
		got.WriteString(line)
	}
	compareGolden(t, "metrics_fresh.golden", got.Bytes())
}

// TestRefreezeCounterMatchesHistogram: each installed re-freeze counts once
// in vdbscand_dataset_refreezes_total, whichever path ran it (a background
// one kicked by an append, or the one Drain runs to fold a backlog below
// the threshold), so after a drain the counter equals the re-freeze
// histogram's _count summed over datasets.
func TestRefreezeCounterMatchesHistogram(t *testing.T) {
	s, c := newTestServer(t, Config{Threads: 1, RefreezePoints: 200})
	all := testPoints(t, 750)
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, all[:500]), http.StatusCreated)
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, all[:500]), http.StatusCreated)
	// d1 stays below the threshold, so only the drain folds it; d2 kicks a
	// background re-freeze.
	c.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, all[500:550]), http.StatusAccepted)
	c.doJSON("POST", "/v1/datasets/d2/points", pointsCSV(t, all[500:]), http.StatusAccepted)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	code, _, body := c.do("GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var counter, histCount float64
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		switch {
		case name == "vdbscand_dataset_refreezes_total":
			counter = v
		case strings.HasPrefix(name, "vdbscand_dataset_refreeze_seconds_count{"):
			histCount += v
		default:
			continue
		}
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
	}
	if counter != histCount || counter != 2 {
		t.Errorf("vdbscand_dataset_refreezes_total = %g, refreeze histogram _count sum = %g; want both 2",
			counter, histCount)
	}
}
