package prom

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// buildReference fills a registry with one family of each shape — the
// golden-file fixture and the round-trip fixture share it.
func buildReference() *Registry {
	r := NewRegistry()
	jobs := r.Counter("test_jobs_total", "Jobs by outcome.", "outcome")
	jobs.With("done").Add(3)
	jobs.With("failed").Inc()
	depth := r.Gauge("test_queue_depth", "Current queue depth.")
	depth.With().Set(7)
	r.GaugeFunc("test_uptime_seconds", "Uptime with sub-second resolution.", func() float64 { return 1.5 })
	r.Counter("test_scrapes_total", "Scrapes served.").With().Add(2)
	h := r.Histogram("test_run_seconds", "Run duration by dataset.",
		[]float64{0.1, 0.5, 2.5}, "dataset", "index")
	m := h.With("d1", "grid")
	m.Observe(0.05)
	m.Observe(0.05)
	m.Observe(0.3)
	m.Observe(1)
	m.Observe(9) // +Inf bucket
	h.With("d2", "rtree").Observe(0.2)
	esc := r.Gauge("test_escaping", "Help with a \\ backslash\nand a newline.", "path")
	esc.With("a\"b\\c\nd").Set(1)
	return r
}

func render(t *testing.T, r *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestGolden pins the exact text-format output byte for byte. Regenerate
// with -update after deliberate format changes.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestGolden(t *testing.T) {
	got := render(t, buildReference())
	path := filepath.Join("testdata", "reference.golden")
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("golden mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramInvariants checks bucket monotonicity and the count/sum
// contract directly on the rendered + reparsed output.
func TestHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_seconds", "h", []float64{0.001, 0.01, 0.1, 1, 10}, "k")
	m := h.With("a")
	var sum float64
	vals := []float64{0.0005, 0.004, 0.004, 0.05, 0.5, 5, 50, 1e9}
	for _, v := range vals {
		m.Observe(v)
		sum += v
	}
	if got := m.Count(); got != uint64(len(vals)) {
		t.Fatalf("Count = %d, want %d", got, len(vals))
	}
	if got := m.Value(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, sum)
	}
	exp, err := Parse(bytes.NewReader(render(t, r)))
	if err != nil {
		t.Fatalf("self-render failed the lint: %v", err)
	}
	// Cumulative buckets from the parse: every le's value must be the
	// number of observations <= le.
	wantCum := map[string]float64{
		"0.001": 1, "0.01": 3, "0.1": 4, "1": 5, "10": 6, "+Inf": 8,
	}
	for le, want := range wantCum {
		got, ok := exp.Value("inv_seconds_bucket", map[string]string{"k": "a", "le": le})
		if !ok || got != want {
			t.Errorf("bucket le=%s = %g (ok=%v), want %g", le, got, ok, want)
		}
	}
	if got, ok := exp.Value("inv_seconds_count", map[string]string{"k": "a"}); !ok || got != float64(len(vals)) {
		t.Errorf("count = %g (ok=%v), want %d", got, ok, len(vals))
	}
}

// TestObserveBoundaries: an observation equal to a bound lands in that
// bucket (le is inclusive), and NaN lands in +Inf only.
func TestObserveBoundaries(t *testing.T) {
	r := NewRegistry()
	m := r.Histogram("b_seconds", "h", []float64{1, 2}).With()
	m.Observe(1) // le="1"
	m.Observe(math.NaN())
	exp, err := Parse(bytes.NewReader(render(t, r)))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := exp.Value("b_seconds_bucket", map[string]string{"le": "1"}); v != 1 {
		t.Errorf("le=1 bucket = %g, want 1", v)
	}
	if v, _ := exp.Value("b_seconds_bucket", map[string]string{"le": "+Inf"}); v != 2 {
		t.Errorf("+Inf bucket = %g, want 2", v)
	}
}

// TestConcurrentObserve hammers one histogram child and one counter from
// many goroutines; run under -race this is the lock-free path's gate.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "h", ExpBuckets(0.001, 4, 8), "w")
	c := r.Counter("c_total", "c")
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := h.With("shared")
			for i := 0; i < each; i++ {
				m.Observe(float64(i%17) * 0.003)
				c.With().Inc()
				if i%64 == 0 {
					// Concurrent scrape while observing.
					var buf bytes.Buffer
					_ = r.Write(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.With("shared").Count(); got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
	if got := c.With().Value(); got != workers*each {
		t.Fatalf("counter = %g, want %d", got, workers*each)
	}
	if _, err := Parse(bytes.NewReader(render(t, r))); err != nil {
		t.Fatalf("post-hammer render failed the lint: %v", err)
	}
}

func TestPanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("p_total", "c")
	g := r.Gauge("p_gauge", "g")
	h := r.Histogram("p_seconds", "h", []float64{1})
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("negative counter add", func() { c.With().Add(-1) })
	expectPanic("set on counter", func() { c.With().Set(1) })
	expectPanic("observe on gauge", func() { g.With().Observe(1) })
	expectPanic("add on histogram", func() { h.With().Add(1) })
	expectPanic("label arity", func() { c.With("extra") })
	expectPanic("duplicate name", func() { r.Counter("p_total", "again") })
	expectPanic("bad name", func() { r.Counter("0bad", "x") })
	expectPanic("reserved le label", func() { r.Counter("p2_total", "x", "le") })
	expectPanic("unsorted buckets", func() { r.Histogram("p2_seconds", "h", []float64{2, 1}) })
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
