package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-tenancy: every request resolves to a tenant, and every job carries
// its tenant from admission to the quota ledger. With no keys configured
// the server runs open, exactly as it always has: every caller is the
// anonymous tenant, which has no limits. The moment at least one API key
// is configured, the data plane (every /v1 and /v2 route) requires a key —
// `Authorization: Bearer <key>` or `X-Api-Key: <key>` — and each key maps
// to a TenantConfig with its own rate, concurrency, and quota envelope.
// /metrics and /healthz stay open either way: scrapers and load balancers
// are not tenants.

// anonymousTenant is the identity of unauthenticated callers on a server
// with no keys configured.
const anonymousTenant = "anonymous"

// TenantConfig is one tenant's identity and limits, as loaded from the
// -keys-file / VDBSCAND_KEYS JSON:
//
//	{"tenants": [
//	  {"id": "acme", "key": "s3cret", "rate_rps": 50, "burst": 100,
//	   "max_concurrent_jobs": 8, "work_quota": 100000000, "allow_approx": true}
//	]}
//
// Zero limits mean unlimited; WorkQuota is measured in work units — the
// job's ε-neighborhood searches plus candidate points examined, the same
// counters /metrics has always exported per run.
type TenantConfig struct {
	// ID names the tenant in job documents, logs, and metric labels.
	ID string `json:"id"`
	// Key is the API key. Compared in constant time.
	Key string `json:"key"`
	// RateRPS is the request-admission token-bucket rate over the tenant's
	// data-plane requests. 0 = unlimited.
	RateRPS float64 `json:"rate_rps"`
	// Burst is the bucket depth; 0 derives max(1, ceil(RateRPS)).
	Burst int `json:"burst"`
	// MaxConcurrentJobs caps the tenant's live (queued or running) jobs.
	// 0 = unlimited.
	MaxConcurrentJobs int `json:"max_concurrent_jobs"`
	// WorkQuota is the total work-unit budget (ε-searches + candidates
	// examined, charged per finished job). Once the ledger reaches it,
	// submissions get 429 quota_exhausted. 0 = unlimited.
	WorkQuota int64 `json:"work_quota"`
	// AllowApprox opts the tenant into load shedding: when the queue is
	// past the pressure threshold its jobs may be served ρ-approximate
	// answers (tagged "quality":"approx") instead of queueing.
	AllowApprox bool `json:"allow_approx"`
}

// keysFile is the JSON shape of -keys-file / VDBSCAND_KEYS.
type keysFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// ParseKeysJSON reads and validates a keys document. It is the single
// loader for both the -keys-file file and the VDBSCAND_KEYS inline JSON.
func ParseKeysJSON(r io.Reader) ([]TenantConfig, error) {
	var kf keysFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&kf); err != nil {
		return nil, fmt.Errorf("keys: %w", err)
	}
	if len(kf.Tenants) == 0 {
		// An explicitly supplied keys document with nobody in it would
		// silently run the server open; that is always a config mistake.
		return nil, fmt.Errorf("keys: document has no tenants")
	}
	if err := validateTenants(kf.Tenants); err != nil {
		return nil, err
	}
	return kf.Tenants, nil
}

// validateTenants enforces the invariants the auth layer depends on: every
// tenant has an id and a key, both unique, neither reserved, no negative
// limits. Shared by ParseKeysJSON and New (a programmatic Config.Tenants
// gets the same guarantees).
func validateTenants(cfgs []TenantConfig) error {
	seenID := map[string]bool{}
	seenKey := map[string]bool{}
	for i, tc := range cfgs {
		if tc.ID == "" {
			return fmt.Errorf("keys: tenant %d has no id", i)
		}
		if tc.ID == anonymousTenant {
			return fmt.Errorf("keys: tenant id %q is reserved", anonymousTenant)
		}
		if tc.Key == "" {
			return fmt.Errorf("keys: tenant %q has no key", tc.ID)
		}
		if seenID[tc.ID] {
			return fmt.Errorf("keys: duplicate tenant id %q", tc.ID)
		}
		if seenKey[tc.Key] {
			return fmt.Errorf("keys: tenants share a key (second holder: %q)", tc.ID)
		}
		if tc.RateRPS < 0 || tc.Burst < 0 || tc.MaxConcurrentJobs < 0 || tc.WorkQuota < 0 {
			return fmt.Errorf("keys: tenant %q has a negative limit", tc.ID)
		}
		seenID[tc.ID] = true
		seenKey[tc.Key] = true
	}
	return nil
}

// tenant is one tenant's runtime state: the token bucket, the live-job
// gauge, and the quota ledger.
type tenant struct {
	cfg TenantConfig

	// Token bucket over data-plane requests; guarded by mu.
	mu     sync.Mutex
	tokens float64
	refill time.Time

	// Ledger. charged is the quota-relevant sum (searches + candidates);
	// the split is kept so /v2/tenants/self can show where the work went.
	charged    atomic.Int64
	searches   atomic.Int64
	candidates atomic.Int64
	jobsRun    atomic.Int64 // finished jobs charged to the ledger
	jobsShed   atomic.Int64 // jobs served approximate answers
	jobsLive   atomic.Int64 // queued or running right now
}

func newTenant(cfg TenantConfig) *tenant {
	t := &tenant{cfg: cfg, refill: time.Now()}
	t.tokens = float64(t.burst())
	return t
}

func (t *tenant) id() string { return t.cfg.ID }

func (t *tenant) burst() int {
	if t.cfg.Burst > 0 {
		return t.cfg.Burst
	}
	if b := int(t.cfg.RateRPS + 0.999); b > 1 {
		return b
	}
	return 1
}

// allowRequest takes one token from the tenant's bucket, refilling at
// RateRPS first. Unlimited tenants always pass.
func (t *tenant) allowRequest(now time.Time) bool {
	if t.cfg.RateRPS <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tokens += now.Sub(t.refill).Seconds() * t.cfg.RateRPS
	if max := float64(t.burst()); t.tokens > max {
		t.tokens = max
	}
	t.refill = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// overQuota reports whether the ledger has consumed the tenant's work
// budget.
func (t *tenant) overQuota() bool {
	return t.cfg.WorkQuota > 0 && t.charged.Load() >= t.cfg.WorkQuota
}

// atJobCap reports whether the tenant has hit its concurrent-jobs cap.
func (t *tenant) atJobCap() bool {
	return t.cfg.MaxConcurrentJobs > 0 && t.jobsLive.Load() >= int64(t.cfg.MaxConcurrentJobs)
}

// tenantSet is the server's tenant registry. Immutable after New: key
// rotation is a restart (the set is tiny and the daemon drains cleanly).
type tenantSet struct {
	list []*tenant // every configured tenant, for the constant-time key scan
	byID map[string]*tenant
	anon *tenant
}

func newTenantSet(cfgs []TenantConfig) (*tenantSet, error) {
	if err := validateTenants(cfgs); err != nil {
		return nil, err
	}
	ts := &tenantSet{
		byID: make(map[string]*tenant, len(cfgs)+1),
		anon: newTenant(TenantConfig{ID: anonymousTenant}),
	}
	for _, tc := range cfgs {
		t := newTenant(tc)
		ts.list = append(ts.list, t)
		ts.byID[tc.ID] = t
	}
	ts.byID[anonymousTenant] = ts.anon
	return ts, nil
}

// authRequired reports whether the data plane demands a key (any key is
// configured).
func (ts *tenantSet) authRequired() bool { return len(ts.list) > 0 }

// authenticate resolves an API key to its tenant. The scan visits every
// configured tenant and compares in constant time regardless of where (or
// whether) the match lands, so response timing leaks neither key bytes nor
// tenant existence.
func (ts *tenantSet) authenticate(key string) (*tenant, bool) {
	var found *tenant
	kb := []byte(key)
	for _, t := range ts.list {
		if subtle.ConstantTimeCompare(kb, []byte(t.cfg.Key)) == 1 {
			found = t
		}
	}
	return found, found != nil
}

// tenantKey carries the resolved tenant through the request context.
const tenantCtxKey ctxKey = 1

// tenantFrom returns the request's tenant. The auth middleware guarantees
// one on every data-plane request; the anonymous tenant is the fallback so
// direct handler tests stay runnable.
func (s *Server) tenantFrom(ctx context.Context) *tenant {
	if t, ok := ctx.Value(tenantCtxKey).(*tenant); ok {
		return t
	}
	return s.tenants.anon
}

// requestKey extracts the API key from Authorization: Bearer or X-Api-Key.
func requestKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return k
		}
	}
	return r.Header.Get("X-Api-Key")
}

// withAuth is the data-plane tenancy middleware: it resolves every /v1 and
// /v2 request to a tenant (401 when keys are configured and the request
// carries none or a wrong one) and applies the tenant's request-rate token
// bucket (429 rate_limited). /metrics and /healthz pass through untouched.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") && !strings.HasPrefix(r.URL.Path, "/v2/") {
			next.ServeHTTP(w, r)
			return
		}
		tn := s.tenants.anon
		if s.tenants.authRequired() {
			key := requestKey(r)
			if key == "" {
				s.apiErr(w, r, http.StatusUnauthorized, errCodeUnauthorized,
					"missing API key (use Authorization: Bearer or X-Api-Key)")
				return
			}
			var ok bool
			if tn, ok = s.tenants.authenticate(key); !ok {
				s.apiErr(w, r, http.StatusUnauthorized, errCodeUnauthorized, "unknown API key")
				return
			}
		}
		if !tn.allowRequest(time.Now()) {
			s.mx.tenantRejected.With(tn.id(), "rate").Inc()
			s.apiErrRetry(w, r, http.StatusTooManyRequests, errCodeRateLimited, 1,
				"tenant %s is over its request rate (%g req/s)", tn.id(), tn.cfg.RateRPS)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey, tn)))
	})
}

// ---- ledger --------------------------------------------------------------

// workCharge is the quota price of a finished job: its ε-neighborhood
// searches plus the candidate points those searches examined — the two
// Work counters that track the actual compute a job consumed, exact and
// approximate alike.
func workCharge(searches, candidates int64) int64 { return searches + candidates }

// chargeJob settles a finished job against its tenant's ledger and the
// tenant-labeled counters, and returns the "job charged" log line for the
// caller to write once it holds no lock. Called once per job, from the
// runner that finished it.
func (s *Server) chargeJob(j *job, searches, candidates int64) (logLine func()) {
	tn := j.tenant
	if tn == nil {
		tn = s.tenants.anon
	}
	charge := workCharge(searches, candidates)
	tn.searches.Add(searches)
	tn.candidates.Add(candidates)
	ledger := tn.charged.Add(charge)
	tn.jobsRun.Add(1)
	id := tn.id()
	s.mx.tenantWork.With(id).Add(float64(charge))
	s.mx.tenantSearches.With(id).Add(float64(searches))
	s.mx.tenantJobs.With(id).Inc()
	return func() {
		s.log.Info("job charged",
			"job", j.id, "tenant", id, "searches", searches,
			"candidates", candidates, "charge", charge, "ledger", ledger)
	}
}

// ---- /v2/tenants/self ----------------------------------------------------

// tenantDoc is the GET /v2/tenants/self document: identity, configured
// limits (0 = unlimited), and ledger usage.
type tenantDoc struct {
	ID     string          `json:"id"`
	Limits tenantLimitsDoc `json:"limits"`
	Usage  tenantUsageDoc  `json:"usage"`
}

type tenantLimitsDoc struct {
	RateRPS           float64 `json:"rate_rps"`
	Burst             int     `json:"burst"`
	MaxConcurrentJobs int     `json:"max_concurrent_jobs"`
	WorkQuota         int64   `json:"work_quota"`
	AllowApprox       bool    `json:"allow_approx"`
}

type tenantUsageDoc struct {
	WorkCharged    int64 `json:"work_charged"`
	WorkRemaining  int64 `json:"work_remaining"` // -1 = unlimited
	EpsSearches    int64 `json:"eps_searches"`
	Candidates     int64 `json:"candidates_examined"`
	JobsCharged    int64 `json:"jobs_charged"`
	JobsShed       int64 `json:"jobs_shed"`
	JobsLive       int64 `json:"jobs_live"`
	QuotaExhausted bool  `json:"quota_exhausted"`
}

func (s *Server) handleTenantSelf(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFrom(r.Context())
	remaining := int64(-1)
	if tn.cfg.WorkQuota > 0 {
		if remaining = tn.cfg.WorkQuota - tn.charged.Load(); remaining < 0 {
			remaining = 0
		}
	}
	writeJSON(w, http.StatusOK, tenantDoc{
		ID: tn.id(),
		Limits: tenantLimitsDoc{
			RateRPS:           tn.cfg.RateRPS,
			Burst:             tn.cfg.Burst,
			MaxConcurrentJobs: tn.cfg.MaxConcurrentJobs,
			WorkQuota:         tn.cfg.WorkQuota,
			AllowApprox:       tn.cfg.AllowApprox,
		},
		Usage: tenantUsageDoc{
			WorkCharged:    tn.charged.Load(),
			WorkRemaining:  remaining,
			EpsSearches:    tn.searches.Load(),
			Candidates:     tn.candidates.Load(),
			JobsCharged:    tn.jobsRun.Load(),
			JobsShed:       tn.jobsShed.Load(),
			JobsLive:       tn.jobsLive.Load(),
			QuotaExhausted: tn.overQuota(),
		},
	})
}
