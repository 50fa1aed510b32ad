package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vdbscan"
	"vdbscan/internal/tec"
)

// The throughput workload: 8 concurrent clients submit 24 jobs of 3
// variants each, drawn from a pool of 8 distinct (ε, minpts) pairs — the
// "several users sweeping the same storm dataset" shape batching is for.
// Run one at a time, the jobs would be 24 ClusterVariants runs of 72
// variant executions; the jobs that queue behind the busy runner coalesce,
// and the union dedup collapses repeated variants across clients.
const (
	benchClients     = 8
	benchJobs        = 24
	benchVariantPool = 8
)

var benchTEC struct {
	once sync.Once
	csv  []byte
	n    int
}

// benchDataset simulates SW1 scaled to ~100k points (the paper's smallest
// TEC dataset at ~5.4% size) and caches its CSV encoding.
func benchDataset(b *testing.B) []byte {
	benchTEC.once.Do(func() {
		ds, err := tec.SW(1, 100000.0/1864620.0)
		if err != nil {
			b.Fatal(err)
		}
		benchTEC.csv = pointsCSV(b, ds.Points)
		benchTEC.n = ds.Len()
	})
	return benchTEC.csv
}

func benchVariants(job int) []vdbscan.Params {
	out := make([]vdbscan.Params, 3)
	for v := range out {
		k := (job + v*3) % benchVariantPool // interleave so jobs overlap partially
		out[v] = vdbscan.Params{
			Eps:    1 + 0.5*float64(k%4),
			MinPts: 4 + 4*(k/4),
		}
	}
	return out
}

// BenchmarkServeThroughput measures end-to-end jobs/sec through the HTTP
// surface. Run with -benchtime 1x: one iteration is the whole 24-job
// workload.
func BenchmarkServeThroughput(b *testing.B) {
	csv := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{Threads: 1, QueueDepth: 256, Runners: 1})
		ts := httptest.NewServer(s.Handler())
		c := &benchClient{b: b, base: ts.URL}
		c.post("/v1/datasets?name=sw1-100k", csv)
		b.StartTimer()

		start := time.Now()
		var wg sync.WaitGroup
		for cl := 0; cl < benchClients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				perClient := benchJobs / benchClients
				ids := make([]string, 0, perClient)
				for jb := 0; jb < perClient; jb++ {
					ids = append(ids, c.submit(benchVariants(cl*perClient+jb)))
				}
				for _, id := range ids {
					c.wait(id)
				}
			}(cl)
		}
		wg.Wait()
		elapsed := time.Since(start)

		b.StopTimer()
		b.ReportMetric(float64(benchJobs)/elapsed.Seconds(), "jobs/s")
		b.ReportMetric(s.mx.batchesRun.Value(), "batches")
		b.ReportMetric(s.mx.variantsRun.Value(), "variants")
		s.Close()
		ts.Close()
		b.StartTimer()
	}
}

// benchClient is a minimal JSON client that fails the benchmark on any
// unexpected response.
type benchClient struct {
	b    *testing.B
	base string
}

func (c *benchClient) post(path string, body []byte) map[string]any {
	tc := testClientDo(c.b, c.base, "POST", path, body)
	return tc
}

func (c *benchClient) submit(params []vdbscan.Params) string {
	specs := make([]string, len(params))
	for i, p := range params {
		specs[i] = fmt.Sprintf(`{"eps":%g,"minpts":%d}`, p.Eps, p.MinPts)
	}
	doc := testClientDo(c.b, c.base, "POST", "/v1/datasets/d1/jobs",
		[]byte(`{"variants":[`+strings.Join(specs, ",")+`]}`))
	id, ok := doc["id"].(string)
	if !ok {
		c.b.Fatalf("submit failed: %v", doc)
	}
	return id
}

func (c *benchClient) wait(id string) {
	for {
		doc := testClientDo(c.b, c.base, "GET", "/v1/jobs/"+id+"?wait=30s", nil)
		switch doc["state"] {
		case stateDone:
			return
		case stateFailed, stateCanceled:
			c.b.Fatalf("job %s: %v (%v)", id, doc["state"], doc["error"])
		}
	}
}

// testClientDo is the testing.TB-generic request helper the benchmark uses
// (testClient methods take *testing.T).
func testClientDo(tb testing.TB, base, method, path string, body []byte) map[string]any {
	tb.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		tb.Fatalf("%s %s: %v", method, path, err)
	}
	return doc
}
