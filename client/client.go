// Package client is the typed Go client for vdbscand's v2 API.
//
// It wraps the full submit → watch → results loop — dataset upload, job
// submission, long-poll waiting, SSE event streaming, labels and trace
// retrieval — plus the multi-tenant surface (API-key auth headers,
// GET /v2/tenants/self). Every non-2xx response is decoded into *APIError
// carrying the server's stable machine-readable error code, so callers
// switch on err.Code ("rate_limited", "quota_exhausted", "gone", ...)
// instead of parsing message strings. The legacy /v1 flat error document is
// decoded too, so the client can also point at old daemons.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one vdbscand base URL. It is safe for concurrent use.
type Client struct {
	base   string // e.g. "http://localhost:8714", no trailing slash
	apiKey string
	hc     *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithAPIKey attaches a tenant API key to every request (sent as
// Authorization: Bearer).
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default client has no timeout because
// long-polls and SSE streams are expected to outlive any sane default;
// bound calls with a context instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the daemon at base (scheme://host[:port]).
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ---- wire types ----------------------------------------------------------

// Variant is one (eps, minpts) pair of a job submission.
type Variant struct {
	Eps    float64 `json:"eps"`
	MinPts int     `json:"minpts"`
}

// SubmitRequest is a job submission body.
type SubmitRequest struct {
	Variants []Variant `json:"variants"`
	// TimeoutMS overrides the server's default job deadline (milliseconds).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Dataset mirrors the server's dataset document.
type Dataset struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Points     int    `json:"points"`
	Staged     int    `json:"staged"`
	Version    int    `json:"version"`
	Index      string `json:"index"`
	Refreezing bool   `json:"refreezing"`
	Created    string `json:"created"`
}

// VariantResult is one per-variant result in a finished job.
type VariantResult struct {
	Eps            float64 `json:"eps"`
	MinPts         int     `json:"minpts"`
	Clusters       int     `json:"clusters"`
	Noise          int     `json:"noise"`
	FractionReused float64 `json:"fraction_reused"`
	FromScratch    bool    `json:"from_scratch"`
	DurationMS     float64 `json:"duration_ms"`
}

// Work is a finished job's metered work, exactly what the tenant ledger was
// charged: Charge == EpsSearches + CandidatesExamined.
type Work struct {
	EpsSearches        int64 `json:"eps_searches"`
	CandidatesExamined int64 `json:"candidates_examined"`
	Charge             int64 `json:"charge"`
}

// Job mirrors the server's v2 job document.
type Job struct {
	ID            string          `json:"id"`
	Dataset       string          `json:"dataset"`
	State         string          `json:"state"`
	Error         string          `json:"error,omitempty"`
	Batch         string          `json:"batch"`
	BatchJobs     int             `json:"batch_jobs"`
	BatchVariants int             `json:"batch_variants"`
	Created       string          `json:"created"`
	Started       string          `json:"started,omitempty"`
	Finished      string          `json:"finished,omitempty"`
	Results       []VariantResult `json:"results,omitempty"`
	Tenant        string          `json:"tenant,omitempty"`
	Work          *Work           `json:"work,omitempty"`
}

// Terminal reports whether the job has finished (done, failed, canceled).
func (j *Job) Terminal() bool {
	return j.State == "done" || j.State == "failed" || j.State == "canceled"
}

// Tenant is the GET /v2/tenants/self document: the calling tenant's
// identity, configured limits (0 = unlimited), and ledger usage.
type Tenant struct {
	ID     string `json:"id"`
	Limits struct {
		RateRPS           float64 `json:"rate_rps"`
		Burst             int     `json:"burst"`
		MaxConcurrentJobs int     `json:"max_concurrent_jobs"`
		WorkQuota         int64   `json:"work_quota"`
	} `json:"limits"`
	Usage struct {
		WorkCharged    int64 `json:"work_charged"`
		WorkRemaining  int64 `json:"work_remaining"`
		EpsSearches    int64 `json:"eps_searches"`
		Candidates     int64 `json:"candidates_examined"`
		JobsCharged    int64 `json:"jobs_charged"`
		JobsLive       int64 `json:"jobs_live"`
		QuotaExhausted bool  `json:"quota_exhausted"`
	} `json:"usage"`
}

// AppendResult is the response to a dataset points append.
type AppendResult struct {
	Dataset    string `json:"dataset"`
	Staged     int    `json:"staged"`
	Refreezing bool   `json:"refreezing"`
}

// Event is one frame of a job's SSE stream: the event name (queued,
// batched, running, progress, done, failed, canceled) and its raw
// JSON payload.
type Event struct {
	Name string
	Data json.RawMessage
}

// APIError is any non-2xx response. Code carries the server's stable v2
// error code; responses from the legacy v1 surface (or proxies) that lack
// one leave it empty.
type APIError struct {
	Status     int    // HTTP status
	Code       string // machine-readable code, e.g. "quota_exhausted"
	Message    string
	RetryAfter int // seconds, from the envelope or Retry-After header; 0 = none
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("vdbscand: %s (%d %s)", e.Message, e.Status, e.Code)
	}
	return fmt.Sprintf("vdbscand: %s (%d)", e.Message, e.Status)
}

// ---- request plumbing ----------------------------------------------------

func (c *Client) newReq(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	return req, nil
}

// decodeErr turns a non-2xx response into *APIError, understanding both
// error formats: the v2 envelope {"error":{"code","message","retry_after_s"}}
// and the legacy v1 flat document {"error":"message"}.
func decodeErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	apiErr := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = ra
	}
	var probe struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &probe) == nil && len(probe.Error) > 0 {
		switch probe.Error[0] {
		case '{': // v2 envelope
			var env struct {
				Code        string `json:"code"`
				Message     string `json:"message"`
				RetryAfterS int    `json:"retry_after_s"`
			}
			if json.Unmarshal(probe.Error, &env) == nil {
				apiErr.Code = env.Code
				apiErr.Message = env.Message
				if env.RetryAfterS > 0 {
					apiErr.RetryAfter = env.RetryAfterS
				}
			}
		case '"': // legacy flat document
			var msg string
			if json.Unmarshal(probe.Error, &msg) == nil {
				apiErr.Message = msg
			}
		}
	}
	return apiErr
}

// doJSON runs the request and decodes a 2xx JSON response into out (which
// may be nil for bodyless successes).
func (c *Client) doJSON(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeErr(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := c.newReq(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, out)
}

// ---- datasets ------------------------------------------------------------

// UploadCSV creates a dataset from CSV point data ("x,y" rows, optional
// "# key: value" header). name may be empty (the CSV header or server
// default applies); extra query parameters go in query.
func (c *Client) UploadCSV(ctx context.Context, csv io.Reader, name string, query url.Values) (*Dataset, error) {
	q := url.Values{}
	for k, vs := range query {
		q[k] = vs
	}
	if name != "" {
		q.Set("name", name)
	}
	path := "/v2/datasets"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := c.newReq(ctx, http.MethodPost, path, csv)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	var d Dataset
	if err := c.doJSON(req, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Datasets lists every registered dataset.
func (c *Client) Datasets(ctx context.Context) ([]Dataset, error) {
	var out struct {
		Datasets []Dataset `json:"datasets"`
	}
	if err := c.getJSON(ctx, "/v2/datasets", &out); err != nil {
		return nil, err
	}
	return out.Datasets, nil
}

// Dataset fetches one dataset document.
func (c *Client) Dataset(ctx context.Context, id string) (*Dataset, error) {
	var d Dataset
	if err := c.getJSON(ctx, "/v2/datasets/"+url.PathEscape(id), &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// DeleteDataset removes a dataset. A delete racing a background re-freeze
// returns *APIError with Code "conflict"; retry after RetryAfter seconds.
func (c *Client) DeleteDataset(ctx context.Context, id string) error {
	req, err := c.newReq(ctx, http.MethodDelete, "/v2/datasets/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, nil)
}

// AppendCSV stages more CSV points onto a dataset; they fold into the index
// at the next background re-freeze.
func (c *Client) AppendCSV(ctx context.Context, id string, csv io.Reader) (*AppendResult, error) {
	req, err := c.newReq(ctx, http.MethodPost, "/v2/datasets/"+url.PathEscape(id)+"/points", csv)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/csv")
	var out AppendResult
	if err := c.doJSON(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ---- jobs ----------------------------------------------------------------

// Submit posts a job against a dataset and returns its accepted document
// (state "queued"; poll with Job/Wait or stream with Events).
func (c *Client) Submit(ctx context.Context, datasetID string, sr SubmitRequest) (*Job, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	req, err := c.newReq(ctx, http.MethodPost,
		"/v2/datasets/"+url.PathEscape(datasetID)+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var j Job
	if err := c.doJSON(req, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches one job document. An evicted job returns *APIError with Code
// "gone"; an unknown (or foreign-tenant) one, Code "not_found".
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.getJSON(ctx, "/v2/jobs/"+url.PathEscape(id), &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Jobs lists the calling tenant's jobs.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out struct {
		Jobs []Job `json:"jobs"`
	}
	if err := c.getJSON(ctx, "/v2/jobs", &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Cancel cancels a job and returns its document.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	req, err := c.newReq(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, err
	}
	var j Job
	if err := c.doJSON(req, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Wait long-polls until the job turns terminal or ctx expires. pollWait is
// the per-request ?wait= hint (the server caps it); zero uses 10s.
func (c *Client) Wait(ctx context.Context, id string, pollWait time.Duration) (*Job, error) {
	if pollWait <= 0 {
		pollWait = 10 * time.Second
	}
	for {
		var j Job
		err := c.getJSON(ctx,
			"/v2/jobs/"+url.PathEscape(id)+"?wait="+pollWait.String(), &j)
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			return &j, nil
		}
		if err := ctx.Err(); err != nil {
			return &j, err
		}
	}
}

// Labels fetches one variant's labels as "index,label" CSV.
func (c *Client) Labels(ctx context.Context, id string, variant int) ([]byte, error) {
	return c.raw(ctx, "/v2/jobs/"+url.PathEscape(id)+"/labels?variant="+strconv.Itoa(variant))
}

// TraceText fetches the plain-text timeline of the batch run that carried
// the job.
func (c *Client) TraceText(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v2/jobs/"+url.PathEscape(id)+"/trace?format=text")
}

// TraceChrome fetches the Chrome trace-event JSON of the job's batch run.
func (c *Client) TraceChrome(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/v2/jobs/"+url.PathEscape(id)+"/trace")
}

func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := c.newReq(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeErr(resp)
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("vdbscand: read %s: %w", path, err)
	}
	return body, nil
}

// maxPresize caps the buffer readBody allocates up front on the server's
// word; a larger body grows the buffer as it arrives.
const maxPresize = 64 << 20

// readBody reads a response body into one buffer sized from its
// Content-Length, with bytes.MinRead to spare so the read that meets EOF
// does not grow it. A body without a length, or longer than its length or
// maxPresize, grows the buffer; one cut short of its length is an error.
func readBody(resp *http.Response) ([]byte, error) {
	size := min(max(resp.ContentLength, 0), maxPresize) // -1 when unknown
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Events subscribes to the job's SSE stream and calls fn for every frame
// until the stream ends (the server closes it after the terminal frame), fn
// returns a non-nil error (which Events returns), or ctx expires. It
// returns nil on a normally-ended stream.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	req, err := c.newReq(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeErr(resp)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return &APIError{Status: resp.StatusCode,
			Message: "not an event stream: " + resp.Header.Get("Content-Type")}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			if err := fn(Event{Name: event, Data: json.RawMessage(data)}); err != nil {
				return err
			}
			event, data = "", ""
		}
	}
	return sc.Err()
}

// ---- tenants -------------------------------------------------------------

// TenantSelf fetches the calling tenant's limits and ledger usage.
func (c *Client) TenantSelf(ctx context.Context) (*Tenant, error) {
	var t Tenant
	if err := c.getJSON(ctx, "/v2/tenants/self", &t); err != nil {
		return nil, err
	}
	return &t, nil
}
