package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// The service exposes two API generations side by side:
//
//   - /v1/ is the original surface, kept byte-compatible: every non-2xx
//     response is the flat `{"error": "<message>"}` document the first
//     service release shipped, pinned by golden tests so existing clients
//     and scripts never observe a change;
//
//   - /v2/ carries the same routes plus the multi-tenant surface, and
//     every non-2xx response uses one versioned envelope:
//
//     {"error": {"code": "<stable-code>", "message": "...", "retry_after_s": N}}
//
// The code vocabulary is closed and machine-readable — clients switch on
// it instead of parsing message strings — and retry_after_s mirrors the
// Retry-After header on responses that carry one (429/503), so a client
// that only reads bodies still learns the backoff.
const (
	errCodeBadRequest     = "bad_request"
	errCodeUnauthorized   = "unauthorized"
	errCodeNotFound       = "not_found"
	errCodeConflict       = "conflict"
	errCodeGone           = "gone"
	errCodeQueueFull      = "queue_full"
	errCodeRateLimited    = "rate_limited"
	errCodeQuotaExhausted = "quota_exhausted"
	errCodeDraining       = "draining"
	errCodeInternal       = "internal"
)

// errorEnvelope is the versioned v2 error document.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// isV2 reports whether the request arrived on the v2 surface. The v2-only
// routes (e.g. /v2/tenants/self) match too, so every error they emit is
// enveloped.
func isV2(r *http.Request) bool {
	return strings.HasPrefix(r.URL.Path, "/v2/")
}

// apiErr writes one non-2xx response in the version-appropriate format:
// the flat legacy document on /v1 (byte-identical to the pre-envelope
// service), the coded envelope on /v2.
func (s *Server) apiErr(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	s.apiErrRetry(w, r, status, code, 0, format, args...)
}

// apiErrRetry is apiErr with a backoff hint: retryAfterS > 0 sets the
// Retry-After header on both surfaces and the envelope's retry_after_s on
// v2.
func (s *Server) apiErrRetry(w http.ResponseWriter, r *http.Request, status int, code string, retryAfterS int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	if isV2(r) {
		writeJSON(w, status, errorEnvelope{Error: errorBody{
			Code: code, Message: msg, RetryAfterS: retryAfterS,
		}})
		return
	}
	writeJSON(w, status, errorDoc{Error: msg})
}
