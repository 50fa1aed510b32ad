// Servedemo drives vdbscand through the public client package: it spins up
// the clustering service in-process, uploads a dataset, submits a variant
// job over the v2 API, watches the job live over the Server-Sent Events
// stream (falling back to long-polling when streaming is unavailable), and
// fetches the execution trace and the tenant's work ledger — the full
// submit → watch → results → trace loop a real client would run against a
// deployed daemon.
//
// Run `go run ./examples/servedemo`, or point it at an already-running
// daemon with -addr (e.g. `vdbscand -addr :8714 &` then
// `go run ./examples/servedemo -addr http://localhost:8714`); pass -key
// when the daemon has API keys configured.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"vdbscan/client"
	"vdbscan/internal/server"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running vdbscand (empty: start one in-process)")
	key := flag.String("key", "", "tenant API key (when the daemon has -keys-file configured)")
	flag.Parse()

	base := *addr
	if base == "" {
		// No daemon given: host the service in-process, same handler the
		// vdbscand binary serves.
		srv := server.New(server.Config{Threads: 2})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("started in-process vdbscand at %s\n", base)
	}
	var opts []client.Option
	if *key != "" {
		opts = append(opts, client.WithAPIKey(*key))
	}
	c := client.New(base, opts...)
	ctx := context.Background()

	// 1. Upload: three Gaussian blobs plus background noise, as CSV.
	rnd := rand.New(rand.NewSource(7))
	var csv bytes.Buffer
	csv.WriteString("# name: servedemo\n")
	for _, ctr := range [][2]float64{{10, 10}, {30, 25}, {50, 10}} {
		for i := 0; i < 500; i++ {
			fmt.Fprintf(&csv, "%g,%g\n", ctr[0]+rnd.NormFloat64()*1.2, ctr[1]+rnd.NormFloat64()*1.2)
		}
	}
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&csv, "%g,%g\n", rnd.Float64()*60, rnd.Float64()*35)
	}
	ds, err := c.UploadCSV(ctx, &csv, "", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uploaded dataset %s: %v points (index version %v)\n",
		ds.ID, ds.Points, ds.Version)

	// 2. Submit a three-variant job; the response carries the job ID to poll.
	job, err := c.Submit(ctx, ds.ID, client.SubmitRequest{Variants: []client.Variant{
		{Eps: 0.8, MinPts: 8}, {Eps: 1.0, MinPts: 4}, {Eps: 1.5, MinPts: 4},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted job %s (state %v, batch %v)\n", job.ID, job.State, job.Batch)

	// 3. Watch live: the SSE stream pushes queued → batched → running →
	// per-variant progress → done without any polling. If the stream can't
	// be opened (old daemon, proxy stripping streaming), fall back to
	// long-polling the job document.
	final := watchSSE(ctx, c, job.ID)
	if final == "" {
		fmt.Println("SSE unavailable; falling back to long-poll")
		job, err = c.Wait(ctx, job.ID, 10*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		final = job.State
	}
	job, err = c.Job(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	if final != "done" {
		log.Fatalf("job %s ended %v: %v", job.ID, final, job.Error)
	}

	fmt.Printf("\n%-16s %9s %7s %8s %8s\n", "variant", "clusters", "noise", "reused", "scratch")
	for _, v := range job.Results {
		fmt.Printf("eps=%-4v mp=%-4v %9v %7v %7.1f%% %8v\n",
			v.Eps, v.MinPts, v.Clusters, v.Noise,
			v.FractionReused*100, v.FromScratch)
	}
	if job.Work != nil {
		fmt.Printf("\nwork charged: %d units (%d eps-searches + %d candidates)\n",
			job.Work.Charge, job.Work.EpsSearches, job.Work.CandidatesExamined)
	}

	// 4. The trace shows the one batch run that served the job.
	text, err := c.TraceText(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrace:\n")
	for i, line := range strings.SplitN(string(text), "\n", 8) {
		if i == 7 || line == "" {
			break
		}
		fmt.Printf("  %s\n", line)
	}

	// 5. The tenant ledger shows what the run cost against any quota.
	tn, err := c.TenantSelf(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tenant %s: %d work units charged over %d jobs\n",
		tn.ID, tn.Usage.WorkCharged, tn.Usage.JobsCharged)

	metrics := get(base + "/metrics")
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "vdbscand_jobs_completed_total") ||
			strings.HasPrefix(line, "vdbscan_points_reused_total") {
			fmt.Printf("metric: %s\n", line)
		}
	}
}

// watchSSE consumes the job's event stream, printing a live line per
// lifecycle change and per completed variant. Returns the terminal state,
// or "" if streaming was unavailable (the caller then long-polls).
func watchSSE(ctx context.Context, c *client.Client, jobID string) string {
	final := ""
	err := c.Events(ctx, jobID, func(ev client.Event) error {
		var f map[string]any
		if err := json.Unmarshal(ev.Data, &f); err != nil {
			f = map[string]any{}
		}
		switch ev.Name {
		case "queued", "batched", "running":
			fmt.Printf("  job %s: %s\n", jobID, ev.Name)
		case "progress":
			src := "from scratch"
			switch {
			case f["from_scratch"] == true:
			case asFloat(f["source"]) < 0:
				src = "replayed the dataset's library"
			default:
				src = fmt.Sprintf("reused %.1f%% of variant %v",
					asFloat(f["fraction_reused"])*100, f["source"])
			}
			fmt.Printf("  [%v/%v] variant %v done in %.1fms (%s)\n",
				f["done"], f["total"], f["variant"], asFloat(f["duration_ms"]), src)
		case "done", "failed", "canceled":
			fmt.Printf("  job %s: %s (%.1fms end to end)\n",
				jobID, ev.Name, asFloat(f["duration_ms"]))
			final = ev.Name
		}
		return nil
	})
	if err != nil {
		return "" // stream unavailable or broke before the terminal frame
	}
	return final
}

func asFloat(v any) float64 {
	f, _ := v.(float64)
	return f
}

func get(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	return out.Bytes()
}
