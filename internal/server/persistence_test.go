package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/persist"
)

// drainAndStop gracefully shuts one generation of the server down.
func drainAndStop(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s.Close()
	ts.Close()
}

// startGeneration launches a server over dir without registering cleanup —
// restart tests stop generations explicitly (or abandon them, to simulate
// a crash).
func startGeneration(t *testing.T, cfg Config) (*Server, *httptest.Server, *testClient) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts, &testClient{t: t, base: ts.URL}
}

// TestWarmRestartServesIdenticalLabels is the restart exactness bar: a
// relaunch over the same data dir must restore every dataset from its
// mmap'd snapshot — zero re-freezes, zero re-uploads — and serve labels
// byte-for-byte identical to the first generation's.
func TestWarmRestartServesIdenticalLabels(t *testing.T) {
	dir := t.TempDir()
	jobBody := `{"variants":[{"eps":2,"minpts":8},{"eps":3,"minpts":4}]}`

	s1, ts1, c1 := startGeneration(t, Config{Threads: 1, DataDir: dir})
	c1.doJSON("POST", "/v1/datasets?name=tec", pointsCSV(t, testPoints(t, 3000)), http.StatusCreated)
	sub := c1.submitJob("d1", jobBody, http.StatusAccepted)
	c1.waitDone(sub["id"].(string))
	code, _, labels1 := c1.do("GET", "/v1/jobs/"+sub["id"].(string)+"/labels?variant=0", nil)
	if code != http.StatusOK {
		t.Fatalf("labels gen1 = %d", code)
	}
	drainAndStop(t, s1, ts1)

	s2, ts2, c2 := startGeneration(t, Config{Threads: 1, DataDir: dir})
	defer drainAndStop(t, s2, ts2)

	// The dataset is back without an upload, same id, full point count.
	doc := c2.doJSON("GET", "/v1/datasets/d1", nil, http.StatusOK)
	if doc["points"] != float64(3000) || doc["name"] != "tec" {
		t.Fatalf("restored dataset doc: %v", doc)
	}

	sub2 := c2.submitJob("d1", jobBody, http.StatusAccepted)
	c2.waitDone(sub2["id"].(string))
	code, _, labels2 := c2.do("GET", "/v1/jobs/"+sub2["id"].(string)+"/labels?variant=0", nil)
	if code != http.StatusOK {
		t.Fatalf("labels gen2 = %d", code)
	}
	if !bytes.Equal(labels1, labels2) {
		t.Fatalf("labels diverged across restart:\ngen1: %.120q\ngen2: %.120q", labels1, labels2)
	}

	// Warm start means warm: the first job ran against the mapped snapshot,
	// no re-freeze happened.
	if got := s2.mx.refreezes.Value(); got != 0 {
		t.Fatalf("warm restart performed %g re-freezes, want 0", got)
	}

	// Id allocation resumed above the restored dataset: a fresh upload must
	// not shadow d1's directory.
	up := c2.doJSON("POST", "/v1/datasets?name=more", pointsCSV(t, testPoints(t, 500)), http.StatusCreated)
	if up["id"] != "d2" {
		t.Fatalf("post-restart upload id = %v, want d2", up["id"])
	}
}

// TestRestartReplaysWAL pins the append durability story: acknowledged
// appends survive an unclean stop (no drain, no final re-freeze) via WAL
// replay, and the eventual fold produces the same labels as a process
// that never crashed.
func TestRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	base := testPoints(t, 1500)
	extra := testPoints(t, 2500)[1500:] // disjoint tail of the same distribution
	jobBody := `{"variants":[{"eps":3,"minpts":4}]}`

	// Reference: one process sees base, appends extra, folds, clusters.
	refDir := t.TempDir()
	r1, rts1, rc := startGeneration(t, Config{Threads: 1, DataDir: refDir, RefreezePoints: 1 << 20})
	rc.doJSON("POST", "/v1/datasets", pointsCSV(t, base), http.StatusCreated)
	rc.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, extra), http.StatusAccepted)
	r1.registry.flushRefreezes() // fold staged appends now
	sub := rc.submitJob("d1", jobBody, http.StatusAccepted)
	rc.waitDone(sub["id"].(string))
	_, _, wantLabels := rc.do("GET", "/v1/jobs/"+sub["id"].(string)+"/labels?variant=0", nil)
	drainAndStop(t, r1, rts1)

	// Crashing generation: upload, append (acknowledged, so WAL-durable),
	// then stop WITHOUT draining — staged points never fold, the snapshot
	// still covers only base.
	s1, ts1, c1 := startGeneration(t, Config{Threads: 1, DataDir: dir, RefreezePoints: 1 << 20})
	c1.doJSON("POST", "/v1/datasets", pointsCSV(t, base), http.StatusCreated)
	c1.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, extra), http.StatusAccepted)
	s1.Close() // abrupt: no Drain, no flush
	ts1.Close()

	s2, ts2, c2 := startGeneration(t, Config{Threads: 1, DataDir: dir, RefreezePoints: 1 << 20})
	defer drainAndStop(t, s2, ts2)
	d, ok := s2.registry.get("d1")
	if !ok {
		t.Fatalf("dataset not restored")
	}
	d.mu.Lock()
	staged := len(d.staged)
	d.mu.Unlock()
	if staged != len(extra) {
		t.Fatalf("WAL replay staged %d points, want %d", staged, len(extra))
	}
	s2.registry.flushRefreezes()
	sub2 := c2.submitJob("d1", jobBody, http.StatusAccepted)
	c2.waitDone(sub2["id"].(string))
	_, _, gotLabels := c2.do("GET", "/v1/jobs/"+sub2["id"].(string)+"/labels?variant=0", nil)
	if !bytes.Equal(wantLabels, gotLabels) {
		t.Fatalf("labels after crash+replay diverged from uncrashed run")
	}
}

// TestRestartDropsTornWALTail simulates a crash mid-append: a torn final
// record must be dropped, every record before it kept.
func TestRestartDropsTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c1 := startGeneration(t, Config{Threads: 1, DataDir: dir, RefreezePoints: 1 << 20})
	c1.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 600)), http.StatusCreated)
	full := testPoints(t, 700)
	c1.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, full[600:650]), http.StatusAccepted)
	c1.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, full[650:700]), http.StatusAccepted)
	s1.Close()
	ts1.Close()

	// Tear the middle of the second record off the WAL.
	wal := filepath.Join(dir, "d1", "wal.2")
	img, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("wal missing: %v", err)
	}
	if err := os.WriteFile(wal, img[:len(img)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2, _ := startGeneration(t, Config{Threads: 1, DataDir: dir})
	defer drainAndStop(t, s2, ts2)
	d, ok := s2.registry.get("d1")
	if !ok {
		t.Fatalf("dataset not restored")
	}
	d.mu.Lock()
	staged := len(d.staged)
	d.mu.Unlock()
	if staged != 50 {
		t.Fatalf("staged %d points after torn tail, want the 50 from the intact record", staged)
	}
}

// TestRestartSkipsCorruptSnapshot: a damaged dataset directory must not
// take the server down — it is skipped with a log line, and uploads keep
// working.
func TestRestartSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c1 := startGeneration(t, Config{Threads: 1, DataDir: dir})
	c1.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 800)), http.StatusCreated)
	drainAndStop(t, s1, ts1)

	snap := filepath.Join(dir, "d1", "snapshot")
	img, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(snap, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2, c2 := startGeneration(t, Config{Threads: 1, DataDir: dir})
	defer drainAndStop(t, s2, ts2)
	if got := s2.registry.len(); got != 0 {
		t.Fatalf("corrupt dataset restored (%d live)", got)
	}
	// The server still serves; the damaged id is not resurrected for new
	// uploads only if the directory scan advanced the sequence — it did
	// not (the dataset was skipped), so a fresh upload may reuse d1. What
	// matters is that the upload path works and re-persists cleanly.
	doc := c2.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 300)), http.StatusCreated)
	id, _ := doc["id"].(string)
	if !strings.HasPrefix(id, "d") {
		t.Fatalf("upload after corrupt skip: %v", doc)
	}
}

// TestDeleteRemovesDatasetDir: deleting a dataset removes its durable
// form, so a restart does not resurrect it.
func TestDeleteRemovesDatasetDir(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, c1 := startGeneration(t, Config{Threads: 1, DataDir: dir})
	c1.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 400)), http.StatusCreated)
	if _, err := os.Stat(filepath.Join(dir, "d1", "snapshot")); err != nil {
		t.Fatalf("snapshot not written at upload: %v", err)
	}
	if code, _, body := c1.do("DELETE", "/v1/datasets/d1", nil); code != http.StatusNoContent {
		t.Fatalf("delete = %d: %s", code, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "d1")); !os.IsNotExist(err) {
		t.Fatalf("dataset dir survived delete: %v", err)
	}
	drainAndStop(t, s1, ts1)

	s2, ts2, _ := startGeneration(t, Config{Threads: 1, DataDir: dir})
	defer drainAndStop(t, s2, ts2)
	if got := s2.registry.len(); got != 0 {
		t.Fatalf("deleted dataset resurrected (%d live)", got)
	}
}

// TestRefreezeDurableBeforeVisible pins the order of a re-freeze's last two
// steps: the fold's snapshot is on disk before any observer can see the
// fold. The test parks the re-freeze right after its snapshot write — the
// persistence hook fires between the two steps — and requires the dataset
// document to still show the previous generation mid-refreeze, while a
// server started on a copy of the data dir taken at that instant (a kill,
// as far as the disk can tell) already serves the folded one.
func TestRefreezeDurableBeforeVisible(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Threads: 1, DataDir: dir, RefreezePoints: 4})
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	observe := s.registry.onPersist
	s.registry.onPersist = func(d *dataset, op string, dur time.Duration) {
		observe(d, op, dur)
		if op == persistOpWrite && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	c := &testClient{t: t, base: ts.URL}
	defer drainAndStop(t, s, ts)

	c.doJSON("POST", "/v1/datasets", pointsCSV(t, testPoints(t, 100)), http.StatusCreated)
	armed.Store(true)
	c.doJSON("POST", "/v1/datasets/d1/points", []byte("9,9\n9.1,9\n9,9.1\n9.1,9.1\n"), http.StatusAccepted)
	<-entered
	doc := c.doJSON("GET", "/v1/datasets/d1", nil, http.StatusOK)
	crash := t.TempDir()
	copyFiles(t, filepath.Join(dir, "d1"), filepath.Join(crash, "d1"))
	close(release)
	if doc["refreezing"] != true || doc["points"] != float64(100) {
		t.Fatalf("the fold was visible before its snapshot write returned: %v", doc)
	}

	s2, ts2, c2 := startGeneration(t, Config{Threads: 1, DataDir: crash})
	defer drainAndStop(t, s2, ts2)
	doc = c2.doJSON("GET", "/v1/datasets/d1", nil, http.StatusOK)
	if doc["points"] != float64(104) || doc["staged"] != float64(0) {
		t.Fatalf("a kill after the snapshot write restarted on the previous generation: %v", doc)
	}
}

// copyFiles copies the regular files of directory from into a new
// directory to.
func copyFiles(t *testing.T, from, to string) {
	t.Helper()
	if err := os.Mkdir(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestorePreChangeKindCodes restores a data dir laid out as builds
// from before the grid became the default index wrote it: manifest kind 0
// for the R-tree and 1 for the grid, and snapshots carrying both R-trees
// whatever the kind, the grid one its cell grid too. Each dataset must come
// back as the kind it was written as and serve a fresh upload's labels.
// The R-tree dataset then moves to the grid at its first re-freeze: after
// an append past RefreezePoints it reads "index":"grid" and serves the
// labels of a fresh upload of the grown point set.
func TestRestorePreChangeKindCodes(t *testing.T) {
	dir := t.TempDir()
	pts := testPoints(t, 1500)
	kinds := map[string]dbscan.IndexKind{"d1": dbscan.IndexRTree, "d2": dbscan.IndexGrid}
	for id, kind := range kinds {
		ix := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: kind})
		if err := ix.EnsureGrid(3); err != nil {
			t.Fatal(err)
		}
		parts, err := ix.FrozenParts()
		if err != nil {
			t.Fatal(err)
		}
		rt := dbscan.BuildIndex(pts, dbscan.IndexOptions{Kind: dbscan.IndexRTree})
		low, high := rt.Low().Parts(), rt.High().Parts()
		parts.Low, parts.High = &low, &high
		if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := persist.Save(filepath.Join(dir, id, "snapshot"), parts, 1); err != nil {
			t.Fatal(err)
		}
		code := map[dbscan.IndexKind]int{dbscan.IndexRTree: 0, dbscan.IndexGrid: 1}[kind]
		mf := fmt.Sprintf(`{"id":%q,"name":%q,"created":"2026-01-02T03:04:05Z","r":0,"kind":%d}`, id, id, code)
		if err := os.WriteFile(filepath.Join(dir, id, "manifest.json"), []byte(mf), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, ts, c := startGeneration(t, Config{Threads: 1, DataDir: dir, RefreezePoints: 200})
	defer drainAndStop(t, s, ts)
	fresh := c.doJSON("POST", "/v1/datasets?name=fresh", pointsCSV(t, pts), http.StatusCreated)
	labels := func(ds string) []byte {
		sub := c.submitJob(ds, `{"variants":[{"eps":3,"minpts":4}]}`, http.StatusAccepted)
		c.waitDone(sub["id"].(string))
		code, _, out := c.do("GET", "/v1/jobs/"+sub["id"].(string)+"/labels?variant=0", nil)
		if code != http.StatusOK {
			t.Fatalf("labels of %s = %d", ds, code)
		}
		return out
	}
	want := labels(fresh["id"].(string))
	for id, kind := range kinds {
		doc := c.doJSON("GET", "/v1/datasets/"+id, nil, http.StatusOK)
		if doc["index"] != kind.String() {
			t.Errorf("%s restored as %v, written as %v", id, doc["index"], kind)
		}
		if !bytes.Equal(labels(id), want) {
			t.Errorf("%s (%v) serves labels unlike a fresh upload's", id, kind)
		}
	}

	extra := testPoints(t, 250)
	c.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, extra), http.StatusAccepted)
	s.registry.flushRefreezes()
	grown := c.doJSON("POST", "/v1/datasets?name=grown", pointsCSV(t, append(pts[:len(pts):len(pts)], extra...)), http.StatusCreated)
	doc := c.doJSON("GET", "/v1/datasets/d1", nil, http.StatusOK)
	if doc["index"] != "grid" || doc["version"].(float64) != 2 {
		t.Errorf("re-frozen R-tree dataset reads index %v at version %v, want grid at 2", doc["index"], doc["version"])
	}
	if !bytes.Equal(labels("d1"), labels(grown["id"].(string))) {
		t.Error("re-frozen R-tree dataset serves labels unlike a fresh upload of its points")
	}
}
