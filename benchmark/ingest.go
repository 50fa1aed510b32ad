package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"vdbscan"
	"vdbscan/client"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/server"
)

// ingestWorkload is serve-ingest: the write side of the service, with the
// daemon's default configuration plus a data dir. The store holds
// residentDatasets datasets throughout. An ingest cycle is:
//
//	upload      client.UploadCSV of the base dataset -> 201 (snapshot durable)
//	append      appendBatches x client.AppendCSV of appendBatch points (WAL fsync'd);
//	            the 16th crosses RefreezePoints, so a background re-freeze,
//	            snapshot and WAL rotation run, and 4 batches stay staged
//	restart     stop, then server.New on the same dir -> all datasets listed
//	first labels  submit one variant -> labels received
//
// Its time is the sum of the four parts; stopping, the pre-restart labels
// and deleting the cycle's dataset afterwards are untimed. A cycle that
// stops with Drain restores a snapshot that holds every point; one that
// stops without replays the WAL and serves 4 staged batches, which costs
// about a quarter more in first labels. Cycles of the two kinds are
// therefore timed in pairs and one operation is the mean of a pair: the
// median of a run that alternated between two modes would sit in whichever
// mode had one sample more.
type ingestWorkload struct {
	cfg     runConfig
	n       int
	base    []vdbscan.Point
	extra   []vdbscan.Point // appendBatches * appendBatch points
	baseCSV []byte
	batches [][]byte
	variant vdbscan.Params
	// refFolded is the reference once the re-freeze folded foldedBatches
	// batches in (what an un-drained restart serves); refAll has every
	// appended point (what a drained restart serves).
	refFolded, refAll reference

	dir  string
	svc  *service
	disk []float64 // bytes per point stored, one reading per cycle
}

const (
	residentDatasets = 7
	appendBatch      = 256
	appendBatches    = 20
	foldedBatches    = server.DefaultRefreezePoints / appendBatch // 16
)

func (w *ingestWorkload) prepare(cfg runConfig) error {
	w.cfg = cfg
	w.n = cfg.points(50_000)
	pts, err := genPoints(w.n+appendBatches*appendBatch, cfg.Seed)
	if err != nil {
		return err
	}
	w.base, w.extra = pts[:w.n], pts[w.n:]
	w.baseCSV = pointsCSV(w.base)
	for b := 0; b < appendBatches; b++ {
		w.batches = append(w.batches, pointsCSV(w.extra[b*appendBatch:][:appendBatch]))
	}
	w.variant = vdbscan.Params{Eps: 0.4 * epsFactor(w.n), MinPts: 4}
	folded, err := buildReferences(pts[:w.n+foldedBatches*appendBatch], vdbscan.IndexGrid, []vdbscan.Params{w.variant})
	if err != nil {
		return err
	}
	all, err := buildReferences(pts, vdbscan.IndexGrid, []vdbscan.Params{w.variant})
	if err != nil {
		return err
	}
	w.refFolded, w.refAll = folded[0], all[0]
	refs := []reference{w.refFolded, w.refAll}
	if cfg.WriteGolden {
		return writeGolden("serve-ingest", w.n, cfg.Seed, refs)
	}
	return checkGolden("serve-ingest", w.n, cfg.Seed, refs)
}

func (w *ingestWorkload) config() server.Config {
	return server.Config{DataDir: w.dir}
}

func (w *ingestWorkload) setUp() error {
	dir, err := os.MkdirTemp(outDir(), "ingest-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.svc = startService(w.config())
	c, tp := w.svc.newClient()
	defer tp.CloseIdleConnections()
	for i := 0; i < residentDatasets; i++ {
		if _, err := c.UploadCSV(context.Background(), bytes.NewReader(w.baseCSV), fmt.Sprintf("resident-%d", i), nil); err != nil {
			return err
		}
	}
	// Warm-up: one cycle of each kind.
	m := newMeasurement()
	w.pair(m, nil)
	if m.Failed > 0 {
		return fmt.Errorf("warm-up cycles failed: %v", m.Failures)
	}
	return nil
}

func (w *ingestWorkload) tearDown() {
	if w.svc != nil {
		w.svc.stop(true) //nolint:errcheck // set-up is over either way
		w.svc = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// firstLabels submits the one-variant job and returns its document, label
// bytes and timing.
func (w *ingestWorkload) firstLabels(c *client.Client, ds string) (*client.Job, []byte, jobTiming, error) {
	ctx := context.Background()
	var jt jobTiming
	jt.submit0 = time.Now()
	j, err := c.Submit(ctx, ds, client.SubmitRequest{Variants: []client.Variant{{Eps: w.variant.Eps, MinPts: w.variant.MinPts}}})
	jt.submit1 = time.Now()
	if err != nil {
		return nil, nil, jt, err
	}
	j, labels, err := runJob(ctx, c, &jt, j.ID, 1)
	if err != nil {
		return nil, nil, jt, err
	}
	return j, labels[0], jt, nil
}

// pair runs one cycle that restarts after a Drain and one that restarts
// without, and files their mean into m as one operation.
func (w *ingestWorkload) pair(m *measurement, tr *tracer) {
	sum := map[string]time.Duration{}
	var total time.Duration
	var work float64
	for _, drained := range []bool{true, false} {
		m.Attempted++
		errs, parts, charge := w.runCycle(drained, tr, m)
		if len(errs) > 0 {
			m.failOp(errs...)
		}
		if parts == nil {
			return // the cycle did not complete; nothing to time
		}
		for op, d := range parts {
			sum[op] += d
			total += d
		}
		work += charge
	}
	m.OpMS = append(m.OpMS, float64(total)/2/1e6)
	m.Wall += total
	m.Items += 2 * float64(w.n+appendBatches*appendBatch)
	m.Work = append(m.Work, work/2)
	// The parts whose cost depends on the kind of restart, under the names
	// userMetrics knows them by; uploads and appends are sampled one by one
	// in runCycle.
	m.sample("restore_ms", float64(sum["restore"])/2/1e6)
	m.sample("first_labels_ms", float64(sum["first-labels"])/2/1e6)
}

// runCycle returns the failed checks, the duration of each timed part (nil
// if the cycle broke off) and the first-labels job's work units.
func (w *ingestWorkload) runCycle(drained bool, tr *tracer, m *measurement) (errs []string, parts map[string]time.Duration, work float64) {
	ctx := context.Background()
	fail := func(format string, a ...any) { errs = append(errs, "serve-ingest: "+fmt.Sprintf(format, a...)) }
	c, tp := w.svc.newClient()
	defer func() { tp.CloseIdleConnections() }()
	type stamp struct {
		layer, op  string
		start, end time.Time
	}
	var stamps []stamp
	// clock times one part of the cycle and adds it to parts[op].
	parts = map[string]time.Duration{}
	clock := func(layer, op string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		stamps = append(stamps, stamp{layer, op, t0, t1})
		parts[op] += t1.Sub(t0)
		return err
	}

	var ds *client.Dataset
	err := clock(harnessLayer, "upload", func() (err error) {
		ds, err = c.UploadCSV(ctx, bytes.NewReader(w.baseCSV), "cycle", nil)
		return err
	})
	if err != nil {
		fail("upload: %v", err)
		return errs, nil, 0
	}
	m.sample("upload_p50_ms", float64(parts["upload"])/1e6)
	// settled polls (untimed) until no re-freeze is in flight and returns the
	// dataset document.
	settled := func() (*client.Dataset, error) {
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			doc, err := c.Dataset(ctx, ds.ID)
			if err != nil || !doc.Refreezing {
				return doc, err
			}
			if time.Now().After(deadline) {
				return doc, fmt.Errorf("re-freeze still running after 30 s: %+v", *doc)
			}
		}
	}
	for _, b := range w.batches {
		var res *client.AppendResult
		err := clock(harnessLayer, "append", func() (err error) {
			res, err = c.AppendCSV(ctx, ds.ID, bytes.NewReader(b))
			return err
		})
		if err == nil {
			// Every append is a sample of its own, so the one in twenty that
			// kicks the re-freeze is the tail, not a share of every cycle's
			// mean.
			last := stamps[len(stamps)-1]
			m.sample("append_p50_ms", float64(last.end.Sub(last.start))/1e6)
		}
		if err == nil && res.Refreezing {
			// The re-freeze folds whatever is staged when its goroutine gets
			// to run, which may include appends sent after the one that
			// kicked it. Waiting here makes the fold exactly foldedBatches
			// batches on every cycle, so every cycle does the same work.
			_, err = settled()
		}
		if err != nil {
			fail("append: %v", err)
			return errs, nil, 0
		}
	}

	// Untimed: check the state both kinds of stop start from, then take the
	// labels the restart must reproduce.
	doc, err := settled()
	if err != nil {
		fail("dataset: %v", err)
		return errs, nil, 0
	}
	if doc.Points != w.n+foldedBatches*appendBatch || doc.Staged != (appendBatches-foldedBatches)*appendBatch {
		fail("before restart %d points + %d staged, want %d + %d", doc.Points, doc.Staged,
			w.n+foldedBatches*appendBatch, (appendBatches-foldedBatches)*appendBatch)
		return errs, nil, 0
	}
	_, before, _, err := w.firstLabels(c, ds.ID)
	if err != nil {
		fail("labels before restart: %v", err)
		return errs, nil, 0
	}
	w.sampleDisk()
	if series, err := w.svc.scrape(); err == nil {
		m.sample("server.refreezes", series["vdbscand_dataset_refreezes_total"])
		m.sample("server.rejected", series["vdbscand_jobs_rejected_total"])
	}
	tp.CloseIdleConnections()
	if err := w.svc.stop(drained); err != nil {
		fail("drain: %v", err)
	}

	var listed []client.Dataset
	err = clock("server", "restore", func() (err error) {
		w.svc = startService(w.config())
		c, tp = w.svc.newClient()
		listed, err = c.Datasets(ctx)
		return err
	})
	if err != nil {
		fail("restore: %v", err)
		return errs, nil, 0
	}
	if len(listed) != residentDatasets+1 {
		fail("restart restored %d datasets, want %d", len(listed), residentDatasets+1)
	}

	j, after, jt, err := w.firstLabels(c, ds.ID)
	if err != nil {
		fail("first labels: %v", err)
		return errs, nil, 0
	}
	parts["first-labels"] = jt.latency()
	if j.Work != nil {
		work = float64(j.Work.Charge)
		m.sample("core.searches", float64(j.Work.EpsSearches))
	}

	// Checks. Acknowledged appends must all have survived, folded or staged;
	// the served labels must match the reference for what is installed, and
	// an un-drained restart must serve the very bytes served before it.
	doc, err = c.Dataset(ctx, ds.ID)
	if err != nil {
		fail("dataset after restart: %v", err)
	} else if got, want := doc.Points+doc.Staged, w.n+appendBatches*appendBatch; got != want {
		fail("after restart %d points + %d staged = %d, acknowledged %d", doc.Points, doc.Staged, got, want)
	}
	ref := w.refAll
	if !drained {
		ref = w.refFolded
		if !bytes.Equal(before, after) {
			fail("labels differ across an un-drained restart")
		}
	}
	q, e := checkServed("serve-ingest", ref, j.Results[0], after, w.cfg.qualityFloor())
	errs = append(errs, e...)
	m.sample("core.min_quality", q)

	// The timed parts are not contiguous on the clock (untimed steps sit
	// between them), so each is a root of its own; together they are the
	// cycle's end-to-end time. server.New is a call into the server layer and
	// gets its span. An upload or an append is a round trip whose work — CSV
	// decode, index build, snapshot, WAL fsync — happens in layers that
	// cannot be spanned from outside, so it stays the root's own time:
	// unaccounted, under its own name.
	for _, s := range stamps {
		root := tr.add(-1, harnessLayer, s.op, s.start, s.end)
		if s.layer != harnessLayer {
			tr.add(root, s.layer, s.op, s.start, s.end)
		}
	}
	jobSpans(tr, tr.add(-1, harnessLayer, "first-labels", jt.submit0, jt.submit0.Add(jt.latency())), jt, j)

	if err := c.DeleteDataset(ctx, ds.ID); err != nil {
		fail("delete: %v", err)
	}
	return errs, parts, work
}

// sampleDisk records bytes under the data dir per point stored.
func (w *ingestWorkload) sampleDisk() {
	var bytesOnDisk int64
	filepath.WalkDir(w.dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // a vanished file just is not counted
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				bytesOnDisk += info.Size()
			}
		}
		return nil
	})
	points := (residentDatasets+1)*w.n + appendBatches*appendBatch
	// To a thousandth of a byte: the manifests carry timestamps whose
	// trailing zeros are dropped, so the total moves by a byte or two
	// between identical runs, a few millionths of a byte per point.
	w.disk = append(w.disk, math.Round(1000*float64(bytesOnDisk)/float64(points))/1000)
}

func (w *ingestWorkload) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w.disk = nil
	began := time.Now()
	for len(m.OpMS) == 0 || time.Since(began) < d {
		w.pair(m, tr)
		if m.Failed > 0 && len(m.OpMS) == 0 {
			return nil, fmt.Errorf("first cycles failed: %v", m.Failures)
		}
	}
	if len(w.disk) > 0 {
		m.sample("persist.disk_bytes_per_point", median(w.disk))
	}
	return m, nil
}

func (w *ingestWorkload) probeInput() probeInput {
	return probeInput{pts: w.base, params: w.variant, maxEps: w.variant.Eps, kind: dbscan.IndexRTree}
}
