package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"vdbscan"
	"vdbscan/client"
	"vdbscan/internal/server"
)

// service is an in-process vdbscand on a loopback listener.
type service struct {
	srv  *server.Server
	http *httptest.Server
}

func startService(cfg server.Config) *service {
	srv := server.New(cfg)
	return &service{srv: srv, http: httptest.NewServer(srv.Handler())}
}

// stop shuts the service down. Without drain it is the nearest an
// in-process server gets to a crash: staged appends are not folded and no
// final snapshot is written, so the next start must replay the WAL.
func (s *service) stop(drain bool) error {
	var err error
	if drain {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err = s.srv.Drain(ctx)
		cancel()
	}
	s.http.Close()
	s.srv.Close()
	return err
}

// newClient returns a client with a connection pool of its own, so "nproc
// clients" means nproc connections.
func (s *service) newClient() (*client.Client, *http.Transport) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1}
	return client.New(s.http.URL, client.WithHTTPClient(&http.Client{Transport: tp})), tp
}

// scrape reads the unlabeled series of /metrics into a map.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.http.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// jobTiming is what the harness clocked around one job's client calls.
type jobTiming struct {
	submit0, submit1 time.Time
	wait0, wait1     time.Time
	labels           [][2]time.Time
}

func (jt jobTiming) latency() time.Duration {
	return jt.labels[len(jt.labels)-1][1].Sub(jt.submit0)
}

// jobSpans records one finished job: the client calls the harness timed,
// and between them the server-side intervals the job document reports
// (created -> started is queueing, started -> finished is the batch run).
func jobSpans(tr *tracer, parent int, jt jobTiming, j *client.Job) {
	if tr == nil {
		return
	}
	// A job can start, even finish, before Submit has returned; intervals
	// that would run backwards are empty and are left out.
	add := func(layer, op string, start, end time.Time) {
		if end.After(start) {
			tr.add(parent, layer, op, start, end)
		}
	}
	add("client", "submit", jt.submit0, jt.submit1)
	started, err1 := time.Parse(time.RFC3339Nano, j.Started)
	finished, err2 := time.Parse(time.RFC3339Nano, j.Finished)
	ready := jt.submit1
	if err1 == nil && err2 == nil {
		add("server", "queue", jt.submit1, started)
		add("server", "run", maxTime(started, jt.submit1), finished)
		ready = maxTime(finished, jt.submit1)
	}
	// Results ready while this closed-loop client was still waiting for or
	// fetching an earlier job of the same burst.
	add("client", "serial", ready, jt.wait0)
	add("client", "wait", maxTime(ready, jt.wait0), jt.wait1)
	// A Labels round trip is mostly the server encoding the CSV, which cannot
	// be spanned from outside: unaccounted, under its own name.
	for _, l := range jt.labels {
		add(harnessLayer, "labels", l[0], l[1])
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// runJob waits for a submitted job and fetches every variant's labels.
func runJob(ctx context.Context, c *client.Client, jt *jobTiming, id string, variants int) (*client.Job, [][]byte, error) {
	jt.wait0 = time.Now()
	j, err := c.Wait(ctx, id, 0)
	jt.wait1 = time.Now()
	if err != nil {
		return nil, nil, err
	}
	if j.State != "done" {
		return j, nil, fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
	}
	labels := make([][]byte, variants)
	for v := range labels {
		l0 := time.Now()
		labels[v], err = c.Labels(ctx, id, v)
		jt.labels = append(jt.labels, [2]time.Time{l0, time.Now()})
		if err != nil {
			return j, nil, err
		}
	}
	return j, labels, nil
}

// jobsWorkload is serve-jobs: a closed loop of `clients` goroutines, each
// on its own connection. A round submits a burst of burstJobs jobs of
// jobVariants variants drawn from a pool of eight (eps, minpts) pairs, then
// waits for each and fetches all its labels. Callers of vdbscand are sweep
// scripts that wait for replies, hence closed, not open, loop.
type jobsWorkload struct {
	clients int

	cfg  runConfig
	pts  []vdbscan.Point
	csv  []byte
	n    int
	pool []vdbscan.Params
	refs []reference
	svc  *service
	ds   string
}

const (
	burstJobs   = 4
	jobVariants = 3
)

// serveConfig is the README's documented deployment: one worker thread per
// batch run, two runners, a 100 ms coalescing window.
func serveConfig() server.Config {
	return server.Config{Threads: 1, Runners: 2, BatchWindow: 100 * time.Millisecond, QueueDepth: 256}
}

func (w *jobsWorkload) prepare(cfg runConfig) error {
	w.cfg = cfg
	w.n = cfg.points(10_000)
	pts, err := genPoints(w.n, cfg.Seed)
	if err != nil {
		return err
	}
	w.pts, w.csv = pts, pointsCSV(pts)
	w.pool = vdbscan.CartesianVariants(scaled(epsFactor(w.n), 0.2, 0.3, 0.4, 0.6), []int{4, 16})
	// vdbscand builds the default (R-tree) index; check against the grid.
	w.refs, err = buildReferences(pts, vdbscan.IndexGrid, w.pool)
	if err != nil {
		return err
	}
	if cfg.WriteGolden {
		return writeGolden("serve-jobs", w.n, cfg.Seed, w.refs)
	}
	return checkGolden("serve-jobs", w.n, cfg.Seed, w.refs)
}

func (w *jobsWorkload) setUp() error {
	w.svc = startService(serveConfig())
	c, tp := w.svc.newClient()
	defer tp.CloseIdleConnections()
	ds, err := c.UploadCSV(context.Background(), bytes.NewReader(w.csv), "sw1", nil)
	if err != nil {
		return err
	}
	w.ds = ds.ID
	// Warm-up: one burst.
	m := newMeasurement()
	w.round(context.Background(), c, rand.New(rand.NewSource(w.cfg.Seed)), m, nil, &sync.Mutex{})
	if m.Failed > 0 {
		return fmt.Errorf("warm-up burst failed: %v", m.Failures)
	}
	return nil
}

func (w *jobsWorkload) tearDown() {
	if w.svc != nil {
		w.svc.stop(true) //nolint:errcheck // nothing is queued after a closed loop
		w.svc = nil
	}
}

// round is one burst of one client: submit burstJobs jobs, then wait for and
// read each; once the burst's last label byte is in, check every job's output
// and file the results into m under mu. Checking after the burst keeps it out
// of every job's timed interval; it is the closed loop's think time.
func (w *jobsWorkload) round(ctx context.Context, c *client.Client, rng *rand.Rand, m *measurement, tr *tracer, mu *sync.Mutex) {
	type pending struct {
		picks  []int
		jt     jobTiming
		job    *client.Job
		labels [][]byte
		err    error
	}
	burst := make([]pending, burstJobs)
	for b := range burst {
		p := &burst[b]
		p.picks = rng.Perm(len(w.pool))[:jobVariants]
		req := client.SubmitRequest{}
		for _, k := range p.picks {
			req.Variants = append(req.Variants, client.Variant{Eps: w.pool[k].Eps, MinPts: w.pool[k].MinPts})
		}
		p.jt.submit0 = time.Now()
		p.job, p.err = c.Submit(ctx, w.ds, req)
		p.jt.submit1 = time.Now()
	}
	for b := range burst {
		if p := &burst[b]; p.err == nil {
			p.job, p.labels, p.err = runJob(ctx, c, &p.jt, p.job.ID, jobVariants)
		}
	}
	for b := range burst {
		p := &burst[b]
		var errs []string
		var quality []float64
		if p.err != nil {
			errs = append(errs, "serve-jobs: "+p.err.Error())
		} else {
			for v, k := range p.picks {
				// Jaccard on the first job of each burst, facts on all.
				floor := 0.0
				if b == 0 {
					floor = w.cfg.qualityFloor()
				}
				q, e := checkServed("serve-jobs", w.refs[k], p.job.Results[v], p.labels[v], floor)
				errs = append(errs, e...)
				if b == 0 {
					quality = append(quality, q)
				}
			}
		}
		mu.Lock()
		m.Attempted++
		if len(errs) > 0 {
			m.failOp(errs...)
		}
		if p.err == nil {
			j := p.job
			m.OpMS = append(m.OpMS, float64(p.jt.latency())/1e6)
			m.Items++
			if j.Work != nil {
				m.Work = append(m.Work, float64(j.Work.Charge))
				m.sample("core.searches", float64(j.Work.EpsSearches))
			}
			for _, r := range j.Results {
				m.sample("core.reused_share", r.FractionReused)
			}
			for _, q := range quality {
				m.sample("core.min_quality", q)
			}
			root := tr.add(-1, harnessLayer, "job", p.jt.submit0, p.jt.labels[len(p.jt.labels)-1][1])
			jobSpans(tr, root, p.jt, j)
		}
		mu.Unlock()
	}
}

// checkServed is the output check of one variant fetched over HTTP; the
// Jaccard score is taken only when a floor is given.
func checkServed(workload string, ref reference, doc client.VariantResult, labels []byte, qualityFloor float64) (q float64, errs []string) {
	got, err := parseLabelsCSV(labels)
	if err != nil {
		return 0, []string{workload + ": " + err.Error()}
	}
	if err := checkFacts(ref, factsOf(got.NumClusters, got.Labels)); err != nil {
		errs = append(errs, workload+": "+err.Error())
	}
	if doc.Clusters != ref.Facts.Clusters || doc.Noise != ref.Facts.Noise {
		errs = append(errs, fmt.Sprintf("%s: job document says %d clusters / %d noise for %v", workload, doc.Clusters, doc.Noise, ref.Params))
	}
	if qualityFloor > 0 {
		if q, err = checkQuality(ref, got, qualityFloor); err != nil {
			errs = append(errs, workload+": "+err.Error())
		}
	}
	return q, errs
}

func (w *jobsWorkload) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	before, err := w.svc.scrape()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	began := time.Now()
	for cl := 0; cl < w.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, tp := w.svc.newClient()
			defer tp.CloseIdleConnections()
			// Each client draws its own job sequence from the seed, so the
			// jobs sent do not depend on how the clients interleave.
			rng := rand.New(rand.NewSource(w.cfg.Seed*1000 + int64(cl) + 1))
			for first := true; first || time.Since(began) < d; first = false {
				w.round(context.Background(), c, rng, m, tr, &mu)
			}
		}(cl)
	}
	wg.Wait()
	m.Wall = time.Since(began)
	after, err := w.svc.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	jobs, batches := delta("vdbscand_jobs_completed_total"), delta("vdbscand_batches_run_total")
	if batches > 0 {
		m.sample("server.jobs_per_batch", jobs/batches)
	}
	if jobs > 0 {
		m.sample("server.dedup_share", 1-delta("vdbscand_variants_run_total")/(jobs*jobVariants))
	}
	m.sample("server.rejected", delta("vdbscand_jobs_rejected_total"))
	m.sample("server.refreezes", delta("vdbscand_dataset_refreezes_total"))
	if len(m.OpMS) == 0 {
		return nil, fmt.Errorf("no job completed: %v", m.Failures)
	}
	return m, nil
}

func (w *jobsWorkload) probeInput() probeInput {
	return probeInput{pts: w.pts, params: w.pool[len(w.pool)/2], maxEps: w.pool[len(w.pool)-1].Eps, kind: vdbscan.IndexRTree}
}
