package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"
	"time"

	"vdbscan"
	"vdbscan/internal/dataio"
)

// checkLabels requires the job's variant labels to be the bytes of want.
func checkLabels(t *testing.T, c *testClient, jobID string, variant int, want *vdbscan.Clustering) {
	t.Helper()
	code, _, got := c.do("GET", fmt.Sprintf("/v1/jobs/%s/labels?variant=%d", jobID, variant), nil)
	if code != http.StatusOK {
		t.Fatalf("labels %s/%d = %d", jobID, variant, code)
	}
	var buf bytes.Buffer
	if err := dataio.WriteLabelsCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("labels %s/%d differ from Index.Cluster", jobID, variant)
	}
}

// TestServedJobSkipsWindow: BatchWindow is ignored. With it set to an hour,
// a job with a miss and a job the dataset's library serves in full both
// finish done without a Drain, and the served job replays the library.
func TestServedJobSkipsWindow(t *testing.T) {
	pts := testPoints(t, 2000)
	s, c := newTestServer(t, Config{Threads: 1, BatchWindow: time.Hour, Runners: 1})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, pts), http.StatusCreated)
	d, _ := s.registry.get("d1")
	if _, err := d.index.ClusterVariants([]vdbscan.Params{{Eps: 3, MinPts: 8}}, vdbscan.WithLinks(d.links)); err != nil {
		t.Fatal(err)
	}

	miss := c.submitJob("d1", `{"variants":[{"eps":3,"minpts":4},{"eps":2,"minpts":4}]}`, http.StatusAccepted)
	hit := c.submitJob("d1", `{"variants":[{"eps":3,"minpts":8},{"eps":3,"minpts":4}]}`, http.StatusAccepted)
	for _, id := range []string{miss["id"].(string), hit["id"].(string)} {
		if doc := c.doJSON("GET", "/v1/jobs/"+id+"?wait=30s", nil, http.StatusOK); doc["state"] != stateDone {
			t.Fatalf("job %s after 30s: %v (%v)", id, doc["state"], doc["error"])
		}
	}
	doc := c.waitDone(hit["id"].(string))
	for i, r := range doc["results"].([]any) {
		if r.(map[string]any)["from_scratch"] != false {
			t.Errorf("served job variant %d ran from scratch", i)
		}
	}
	idx := vdbscan.NewIndex(pts)
	for i, p := range []vdbscan.Params{{Eps: 3, MinPts: 8}, {Eps: 3, MinPts: 4}} {
		want, err := idx.Cluster(p)
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, c, hit["id"].(string), i, want)
	}
	// Whether or not the two jobs shared a batch, ε = 3 replays the library.
	if got := s.mx.variantsReplayed.Value(); got < 2 {
		t.Errorf("variantsReplayed = %g, want >= 2", got)
	}
}

// TestRefreezeDropsLinks: the library belongs to the installed index. Once
// appends cross RefreezePoints and the re-freeze installs, a job that the
// old version's library served runs from scratch again, with the labels of
// Index.Cluster on the new point set.
func TestRefreezeDropsLinks(t *testing.T) {
	all := testPoints(t, 750)
	s, c := newTestServer(t, Config{Threads: 1, RefreezePoints: 200})
	c.doJSON("POST", "/v1/datasets", pointsCSV(t, all[:500]), http.StatusCreated)
	const body = `{"variants":[{"eps":3,"minpts":8},{"eps":3,"minpts":4}]}`
	params := []vdbscan.Params{{Eps: 3, MinPts: 8}, {Eps: 3, MinPts: 4}}
	head := func(wantScratch bool) string {
		t.Helper()
		id := c.submitJob("d1", body, http.StatusAccepted)["id"].(string)
		doc := c.waitDone(id)
		if doc["state"] != stateDone {
			t.Fatalf("job: %v (%v)", doc["state"], doc["error"])
		}
		if got := doc["results"].([]any)[0].(map[string]any)["from_scratch"]; got != wantScratch {
			t.Fatalf("head from_scratch = %v, want %v", got, wantScratch)
		}
		return id
	}
	head(true)
	head(false)

	c.doJSON("POST", "/v1/datasets/d1/points", pointsCSV(t, all[500:]), http.StatusAccepted)
	d, _ := s.registry.get("d1")
	s.registry.flushDataset(d) // returns once the re-freeze has installed
	id := head(true)
	idx := vdbscan.NewIndex(all)
	for i, p := range params {
		want, err := idx.Cluster(p)
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, c, id, i, want)
	}
}
