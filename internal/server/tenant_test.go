package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// submitJobV2 is submitJob on the /v2 surface.
func (c *testClient) submitJobV2(datasetID string, body string, wantCode int) map[string]any {
	c.t.Helper()
	return c.doJSON("POST", "/v2/datasets/"+datasetID+"/jobs", []byte(body), wantCode)
}

// waitDoneV2 long-polls the job on /v2 until it turns terminal, so the
// returned document carries the v2-only tenant/work/quality fields.
func (c *testClient) waitDoneV2(jobID string) map[string]any {
	c.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		doc := c.doJSON("GET", "/v2/jobs/"+jobID+"?wait=10s", nil, http.StatusOK)
		switch doc["state"] {
		case stateDone, stateFailed, stateCanceled:
			return doc
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s still %v after 2m", jobID, doc["state"])
		}
	}
}

// envelope decodes a v2 error body and returns (code, message, retry_after_s).
func envelope(t *testing.T, body []byte) (string, string, float64) {
	t.Helper()
	var doc struct {
		Error struct {
			Code        string  `json:"code"`
			Message     string  `json:"message"`
			RetryAfterS float64 `json:"retry_after_s"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not an envelope: %q: %v", body, err)
	}
	if doc.Error.Code == "" {
		t.Fatalf("envelope without code: %q", body)
	}
	return doc.Error.Code, doc.Error.Message, doc.Error.RetryAfterS
}

func TestParseKeysJSON(t *testing.T) {
	good := `{"tenants":[
		{"id":"acme","key":"k1","rate_rps":10,"burst":20,"max_concurrent_jobs":4,"work_quota":1000,"allow_approx":true},
		{"id":"beta","key":"k2"}]}`
	cfgs, err := ParseKeysJSON(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid keys file rejected: %v", err)
	}
	if len(cfgs) != 2 || cfgs[0].ID != "acme" || cfgs[0].WorkQuota != 1000 || !cfgs[0].AllowApprox {
		t.Fatalf("parsed = %+v", cfgs)
	}

	bad := map[string]string{
		"unknown field":  `{"tenants":[{"id":"a","key":"k","typo":1}]}`,
		"empty id":       `{"tenants":[{"id":"","key":"k"}]}`,
		"empty key":      `{"tenants":[{"id":"a","key":""}]}`,
		"duplicate id":   `{"tenants":[{"id":"a","key":"k1"},{"id":"a","key":"k2"}]}`,
		"duplicate key":  `{"tenants":[{"id":"a","key":"k"},{"id":"b","key":"k"}]}`,
		"reserved id":    `{"tenants":[{"id":"anonymous","key":"k"}]}`,
		"negative quota": `{"tenants":[{"id":"a","key":"k","work_quota":-1}]}`,
		"no tenants":     `{"tenants":[]}`,
	}
	for name, in := range bad {
		if _, err := ParseKeysJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}

// TestAuthRequired pins the gate: with keys configured, an unauthenticated
// request is a 401 on both surfaces (envelope on v2, legacy flat doc on
// v1), and both Authorization: Bearer and X-Api-Key authenticate.
func TestAuthRequired(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1, Tenants: []TenantConfig{
		{ID: "acme", Key: "k-acme"},
	}})

	code, _, body := c.do("GET", "/v2/datasets", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v2 = %d, want 401; body %s", code, body)
	}
	if ec, _, _ := envelope(t, body); ec != errCodeUnauthorized {
		t.Errorf("code = %q, want %q", ec, errCodeUnauthorized)
	}

	code, _, body = c.do("GET", "/v1/datasets", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1 = %d, want 401", code)
	}
	if !bytes.Contains(body, []byte(`"error": "`)) || bytes.Contains(body, []byte(`"code"`)) {
		t.Errorf("/v1 401 body is not the legacy flat document: %s", body)
	}

	if code, _, body = c.withKey("wrong").do("GET", "/v2/datasets", nil); code != http.StatusUnauthorized {
		t.Errorf("bad key = %d, want 401; body %s", code, body)
	}
	if code, _, _ = c.withKey("k-acme").do("GET", "/v2/datasets", nil); code != http.StatusOK {
		t.Errorf("bearer key = %d, want 200", code)
	}

	req, err := http.NewRequest("GET", c.base+"/v2/datasets", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Api-Key", "k-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("X-Api-Key = %d, want 200", resp.StatusCode)
	}

	// /metrics and /healthz stay open: scrapers and probes carry no keys.
	if code, _, _ = c.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz behind auth = %d, want 200", code)
	}
	if code, _, _ = c.do("GET", "/metrics", nil); code != http.StatusOK {
		t.Errorf("metrics behind auth = %d, want 200", code)
	}
}

// TestErrorEnvelopeGoldens pins both error formats byte-for-byte: the v2
// envelope and the legacy v1 flat document for the same miss.
func TestErrorEnvelopeGoldens(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1})

	code, _, body := c.do("GET", "/v2/jobs/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET /v2/jobs/nope = %d, want 404", code)
	}
	want := "{\n  \"error\": {\n    \"code\": \"not_found\",\n    \"message\": \"no job \\\"nope\\\"\"\n  }\n}\n"
	if string(body) != want {
		t.Errorf("v2 envelope drifted:\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}

	code, _, body = c.do("GET", "/v1/jobs/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/nope = %d, want 404", code)
	}
	wantV1 := "{\n  \"error\": \"no job \\\"nope\\\"\"\n}\n"
	if string(body) != wantV1 {
		t.Errorf("v1 legacy error drifted:\n--- got ---\n%s\n--- want ---\n%s", body, wantV1)
	}
}

// TestV2JobDocGolden golden-compares the v2 job document: same shape as v1
// plus tenant and work.
func TestV2JobDocGolden(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1})
	csv := pointsCSV(t, testPoints(t, 400))
	ds := c.doJSON("POST", "/v2/datasets?name=golden", csv, http.StatusCreated)
	sub := c.submitJobV2(ds["id"].(string),
		`{"variants":[{"eps":0.25,"minpts":4},{"eps":0.3,"minpts":4}]}`, http.StatusAccepted)
	done := c.waitDoneV2(sub["id"].(string))
	checkGolden(t, "job_done_v2.golden.json", done)
}

// TestQuotaChargesMatchWork pins the metering identity end to end: the
// charge in the job document equals its eps-searches + candidates exactly,
// the tenant ledger equals the charge, and the next submit over quota is a
// 429 quota_exhausted with a Retry-After.
func TestQuotaChargesMatchWork(t *testing.T) {
	_, tc := newTestServer(t, Config{Threads: 1, Tenants: []TenantConfig{
		{ID: "metered", Key: "k-m", WorkQuota: 1}, // any finished job exhausts it
	}})
	c := tc.withKey("k-m")

	csv := pointsCSV(t, testPoints(t, 400))
	ds := c.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	sub := c.submitJobV2(ds["id"].(string),
		`{"variants":[{"eps":0.25,"minpts":4},{"eps":0.3,"minpts":4}]}`, http.StatusAccepted)
	done := c.waitDoneV2(sub["id"].(string))
	if done["state"] != stateDone {
		t.Fatalf("job = %v", done)
	}
	if done["tenant"] != "metered" {
		t.Errorf("tenant = %v, want metered", done["tenant"])
	}

	work, ok := done["work"].(map[string]any)
	if !ok {
		t.Fatalf("done job has no work document: %v", done)
	}
	searches := int64(work["eps_searches"].(float64))
	candidates := int64(work["candidates_examined"].(float64))
	charge := int64(work["charge"].(float64))
	if searches <= 0 || candidates <= 0 {
		t.Fatalf("work counters empty: %+v", work)
	}
	if charge != searches+candidates {
		t.Fatalf("charge %d != eps_searches %d + candidates %d", charge, searches, candidates)
	}

	self := c.doJSON("GET", "/v2/tenants/self", nil, http.StatusOK)
	usage := self["usage"].(map[string]any)
	if got := int64(usage["work_charged"].(float64)); got != charge {
		t.Errorf("ledger work_charged = %d, want exactly the job's charge %d", got, charge)
	}
	if got := int64(usage["eps_searches"].(float64)); got != searches {
		t.Errorf("ledger eps_searches = %d, want %d", got, searches)
	}
	if got := int64(usage["jobs_charged"].(float64)); got != 1 {
		t.Errorf("jobs_charged = %d, want 1", got)
	}
	if usage["quota_exhausted"] != true {
		t.Errorf("quota_exhausted = %v, want true", usage["quota_exhausted"])
	}

	code, hdr, body := c.do("POST", "/v2/datasets/"+ds["id"].(string)+"/jobs",
		[]byte(`{"variants":[{"eps":0.25,"minpts":4}]}`))
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429; body %s", code, body)
	}
	ec, msg, retry := envelope(t, body)
	if ec != errCodeQuotaExhausted {
		t.Errorf("code = %q, want %q", ec, errCodeQuotaExhausted)
	}
	if !strings.Contains(msg, "metered") {
		t.Errorf("message %q should name the tenant", msg)
	}
	if hdr.Get("Retry-After") == "" || retry <= 0 {
		t.Errorf("over-quota 429 lacks Retry-After (header %q, body %v)", hdr.Get("Retry-After"), retry)
	}
}

// TestChargedBeforeVisible pins the terminal transition's ordering: the
// winning finish settles the job's counters and ledger charge before any
// reader — the job document, Wait and long-polls on done — can see it
// terminal, so a client that reads the ledger right after seeing "done"
// always finds the job's work in it. settle blocks here while a reader
// tries to look at the job.
func TestChargedBeforeVisible(t *testing.T) {
	j := newJobStore().new(nil, "d1", nil, time.Minute)
	seen := make(chan string, 1)
	settled := false
	won := j.finish(stateDone, "", nil, func() {
		go func() {
			state, _, _, _, _ := j.view()
			seen <- state
		}()
		select {
		case state := <-seen:
			t.Errorf("job document reads %q while the job is being settled", state)
		case <-time.After(50 * time.Millisecond):
		}
		select {
		case <-j.done:
			t.Error("done closed while the job is being settled")
		default:
		}
		settled = true
	})
	if !won || !settled {
		t.Fatalf("finish = %v, settled = %v", won, settled)
	}
	if state := <-seen; state != stateDone {
		t.Errorf("job document reads %q after finish, want %q", state, stateDone)
	}
	if j.finish(stateFailed, "late", nil, func() { t.Error("a losing finish settled") }) {
		t.Error("second finish won")
	}
}

// TestTenantIsolationConcurrent submits jobs as two tenants against the
// same dataset, 8 ways concurrently, and checks neither can see the
// other's jobs and every charge lands on the right ledger.
func TestTenantIsolationConcurrent(t *testing.T) {
	_, tc := newTestServer(t, Config{Threads: 1, Runners: 2, Tenants: []TenantConfig{
		{ID: "alpha", Key: "k-a"},
		{ID: "bravo", Key: "k-b"},
	}})
	alpha, bravo := tc.withKey("k-a"), tc.withKey("k-b")

	csv := pointsCSV(t, testPoints(t, 300))
	ds := alpha.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	dsID := ds["id"].(string)

	const perTenant = 4
	jobs := map[string][]string{} // tenant id -> job ids
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < perTenant; i++ {
		for _, tn := range []struct {
			id string
			c  *testClient
		}{{"alpha", alpha}, {"bravo", bravo}} {
			wg.Add(1)
			go func(eps float64) {
				defer wg.Done()
				sub := tn.c.submitJobV2(dsID,
					fmt.Sprintf(`{"variants":[{"eps":%g,"minpts":4}]}`, eps), http.StatusAccepted)
				mu.Lock()
				jobs[tn.id] = append(jobs[tn.id], sub["id"].(string))
				mu.Unlock()
			}(0.2 + 0.02*float64(i))
		}
	}
	wg.Wait()

	var charges = map[string]int64{}
	for id, cl := range map[string]*testClient{"alpha": alpha, "bravo": bravo} {
		for _, jobID := range jobs[id] {
			done := cl.waitDoneV2(jobID)
			if done["state"] != stateDone {
				t.Fatalf("%s job %s = %v", id, jobID, done)
			}
			if done["tenant"] != id {
				t.Errorf("job %s tenant = %v, want %s", jobID, done["tenant"], id)
			}
			charges[id] += int64(done["work"].(map[string]any)["charge"].(float64))
		}
	}

	// Each tenant's list holds exactly its own jobs; the other's IDs 404.
	for id, cl := range map[string]*testClient{"alpha": alpha, "bravo": bravo} {
		list := cl.doJSON("GET", "/v2/jobs", nil, http.StatusOK)
		var got []string
		for _, item := range list["jobs"].([]any) {
			got = append(got, item.(map[string]any)["id"].(string))
		}
		if len(got) != perTenant {
			t.Errorf("%s sees %d jobs %v, want its own %d", id, len(got), got, perTenant)
		}
		for _, jobID := range got {
			found := false
			for _, own := range jobs[id] {
				found = found || own == jobID
			}
			if !found {
				t.Errorf("%s sees foreign job %s", id, jobID)
			}
		}
		other := "bravo"
		if id == "bravo" {
			other = "alpha"
		}
		code, _, body := cl.do("GET", "/v2/jobs/"+jobs[other][0], nil)
		if code != http.StatusNotFound {
			t.Errorf("%s reading %s's job = %d, want 404; body %s", id, other, code, body)
		}
	}

	for id, cl := range map[string]*testClient{"alpha": alpha, "bravo": bravo} {
		self := cl.doJSON("GET", "/v2/tenants/self", nil, http.StatusOK)
		usage := self["usage"].(map[string]any)
		if got := int64(usage["work_charged"].(float64)); got != charges[id] {
			t.Errorf("%s ledger = %d, want the sum of its own jobs' charges %d", id, got, charges[id])
		}
		if got := int64(usage["jobs_charged"].(float64)); got != perTenant {
			t.Errorf("%s jobs_charged = %d, want %d", id, got, perTenant)
		}
	}
}

// TestJobTTLEviction runs a job with a tiny TTL and checks the result is
// reclaimed: GET turns 410 gone, the job leaves the list, and the eviction
// counter ticks.
func TestJobTTLEviction(t *testing.T) {
	_, c := newTestServer(t, Config{Threads: 1, JobTTL: 50 * time.Millisecond})
	csv := pointsCSV(t, testPoints(t, 200))
	ds := c.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	sub := c.submitJobV2(ds["id"].(string), `{"variants":[{"eps":0.25,"minpts":4}]}`, http.StatusAccepted)
	jobID := sub["id"].(string)
	c.waitDoneV2(jobID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, body := c.do("GET", "/v2/jobs/"+jobID, nil)
		if code == http.StatusGone {
			if ec, msg, _ := envelope(t, body); ec != errCodeGone || !strings.Contains(msg, "evicted") {
				t.Errorf("410 body = %s, want code gone mentioning eviction", body)
			}
			break
		}
		if code != http.StatusOK {
			t.Fatalf("GET job pre-eviction = %d: %s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}

	list := c.doJSON("GET", "/v2/jobs", nil, http.StatusOK)
	if jobs, _ := list["jobs"].([]any); len(jobs) != 0 {
		t.Errorf("evicted job still listed: %v", jobs)
	}
	_, _, metrics := c.do("GET", "/metrics", nil)
	if !strings.Contains(string(metrics), `vdbscand_jobs_evicted_total{tenant="anonymous"} 1`) {
		t.Errorf("eviction counter missing from /metrics")
	}

	// The /v1 surface reports the same eviction as a flat-doc 410.
	code, _, body := c.do("GET", "/v1/jobs/"+jobID, nil)
	if code != http.StatusGone || bytes.Contains(body, []byte(`"code"`)) {
		t.Errorf("/v1 evicted GET = %d %s, want flat 410", code, body)
	}
}

// TestLoadSheddingApprox holds an exact job in a long batching window so
// the queue is non-empty, then submits an opted-in job: it must come back
// done with quality "approx", retrievable labels, and a shed-counter tick,
// while the exact job keeps its slot.
func TestLoadSheddingApprox(t *testing.T) {
	_, c := newTestServer(t, Config{
		Threads:       1,
		BatchWindow:   time.Hour, // park the exact job so depth >= threshold
		ShedThreshold: 1,
	})
	csv := pointsCSV(t, testPoints(t, 300))
	ds := c.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	dsID := ds["id"].(string)

	exact := c.submitJobV2(dsID, `{"variants":[{"eps":0.25,"minpts":4}]}`, http.StatusAccepted)
	shed := c.submitJobV2(dsID, `{"variants":[{"eps":0.25,"minpts":4}],"allow_approx":true}`, http.StatusAccepted)

	done := c.waitDoneV2(shed["id"].(string))
	if done["state"] != stateDone {
		t.Fatalf("shed job = %v", done)
	}
	if done["quality"] != qualityApprox {
		t.Fatalf("quality = %v, want %q", done["quality"], qualityApprox)
	}
	results := done["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	if clusters := results[0].(map[string]any)["clusters"].(float64); clusters <= 0 {
		t.Errorf("approx run found %v clusters, want > 0", clusters)
	}
	if work, ok := done["work"].(map[string]any); !ok || work["charge"].(float64) <= 0 {
		t.Errorf("shed job carries no work charge: %v", done["work"])
	}
	if code, _, body := c.do("GET", "/v2/jobs/"+shed["id"].(string)+"/labels?variant=0", nil); code != http.StatusOK {
		t.Errorf("labels after shed run = %d: %s", code, body)
	}

	// The parked exact job is untouched: still queued, no quality tag.
	if doc := c.doJSON("GET", "/v2/jobs/"+exact["id"].(string), nil, http.StatusOK); doc["state"] != stateQueued {
		t.Errorf("exact job state = %v, want still queued", doc["state"])
	} else if _, has := doc["quality"]; has {
		t.Errorf("exact job carries a quality tag: %v", doc)
	}

	_, _, metrics := c.do("GET", "/metrics", nil)
	if !strings.Contains(string(metrics), `vdbscand_jobs_shed_total{tenant="anonymous"} 1`) {
		t.Errorf("shed counter missing from /metrics")
	}
}

// TestDeleteMidRefreezeConflict drives the once-racy path deterministically
// with the registry's test barrier: a DELETE while the background re-freeze
// installs is an explicit 409 conflict, and succeeds after the install.
func TestDeleteMidRefreezeConflict(t *testing.T) {
	s, c := newTestServer(t, Config{Threads: 1, RefreezePoints: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.registry.refreezeBarrier = func(d *dataset) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	csv := pointsCSV(t, testPoints(t, 100))
	ds := c.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	dsID := ds["id"].(string)

	app := c.doJSON("POST", "/v2/datasets/"+dsID+"/points",
		[]byte("9,9\n9.1,9\n9,9.1\n9.1,9.1\n"), http.StatusAccepted)
	if app["refreezing"] != true {
		t.Fatalf("append did not trigger a re-freeze: %v", app)
	}
	<-entered

	code, hdr, body := c.do("DELETE", "/v2/datasets/"+dsID, nil)
	if code != http.StatusConflict {
		t.Fatalf("delete mid-refreeze = %d, want 409; body %s", code, body)
	}
	if ec, msg, _ := envelope(t, body); ec != errCodeConflict || !strings.Contains(msg, "re-freezing") {
		t.Errorf("409 body = %s, want conflict naming the re-freeze", body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("conflict response lacks Retry-After")
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, body = c.do("DELETE", "/v2/datasets/"+dsID, nil)
		if code == http.StatusNoContent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delete still refused after install: %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAppendAfterDeleteConflict exercises the registry-level race directly:
// an append holding a dataset handle that loses to a delete is refused, not
// silently dropped.
func TestAppendAfterDeleteConflict(t *testing.T) {
	s, c := newTestServer(t, Config{Threads: 1})
	csv := pointsCSV(t, testPoints(t, 50))
	ds := c.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	d, ok := s.registry.get(ds["id"].(string))
	if !ok {
		t.Fatal("dataset missing from registry")
	}
	if err := s.registry.delete(d.id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.registry.append(d, testPoints(t, 4), &s.ctrs); err != errDatasetDeleted {
		t.Fatalf("append after delete = %v, want errDatasetDeleted", err)
	}
}

// TestRateLimit pins the per-tenant token bucket: burst 1 admits one
// request, the next is a 429 rate_limited with a Retry-After.
func TestRateLimit(t *testing.T) {
	_, tc := newTestServer(t, Config{Threads: 1, Tenants: []TenantConfig{
		{ID: "slow", Key: "k-s", RateRPS: 0.0001, Burst: 1},
	}})
	c := tc.withKey("k-s")
	if code, _, body := c.do("GET", "/v2/jobs", nil); code != http.StatusOK {
		t.Fatalf("first request = %d: %s", code, body)
	}
	code, hdr, body := c.do("GET", "/v2/jobs", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429; body %s", code, body)
	}
	if ec, _, _ := envelope(t, body); ec != errCodeRateLimited {
		t.Errorf("code = %q, want %q", ec, errCodeRateLimited)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("rate-limited 429 lacks Retry-After")
	}
}

// TestConcurrentJobsCap pins the per-tenant concurrency gate with a job
// parked in a long batching window.
func TestConcurrentJobsCap(t *testing.T) {
	_, tc := newTestServer(t, Config{
		Threads:     1,
		BatchWindow: time.Hour,
		Tenants:     []TenantConfig{{ID: "capped", Key: "k-c", MaxConcurrentJobs: 1}},
	})
	c := tc.withKey("k-c")
	csv := pointsCSV(t, testPoints(t, 50))
	ds := c.doJSON("POST", "/v2/datasets", csv, http.StatusCreated)
	c.submitJobV2(ds["id"].(string), `{"variants":[{"eps":0.25,"minpts":4}]}`, http.StatusAccepted)

	code, _, body := c.do("POST", "/v2/datasets/"+ds["id"].(string)+"/jobs",
		[]byte(`{"variants":[{"eps":0.3,"minpts":4}]}`))
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit over job cap = %d, want 429; body %s", code, body)
	}
	if ec, msg, _ := envelope(t, body); ec != errCodeRateLimited || !strings.Contains(msg, "concurrent-jobs cap") {
		t.Errorf("429 body = %s, want rate_limited naming the cap", body)
	}
}
