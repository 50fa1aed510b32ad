package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// bodyServer serves body at every path: with its length, in flushed
// chunks without one, or with the length the declare header names.
func bodyServer(t *testing.T, body []byte) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("mode") {
		case "sized":
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		case "chunked":
			for rest := body; len(rest) > 0; {
				n := min(len(rest), 3000)
				w.Write(rest[:n])
				w.(http.Flusher).Flush()
				rest = rest[n:]
			}
		case "declare":
			w.Header().Set("Content-Length", r.URL.Query().Get("length"))
			w.Write(body)
		}
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// allocated returns the bytes the process allocates while fn runs.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRawReadsSizedBodies covers how raw, behind Labels and the trace
// fetches, reads a body: a sized one into one buffer of its size, a
// chunked one by growing, one cut short of its length as an error, and a
// length far past maxPresize without allocating it.
func TestRawReadsSizedBodies(t *testing.T) {
	body := bytes.Repeat([]byte("123456,17\n"), 100<<10) // 1000 KiB
	c := bodyServer(t, body)
	ctx := context.Background()

	t.Run("sized", func(t *testing.T) {
		var got []byte
		var err error
		c.raw(ctx, "/?mode=sized") // warm the connection
		n := allocated(func() { got, err = c.raw(ctx, "/?mode=sized") })
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("raw = %d B, %v; want the %d-B body", len(got), err, len(body))
		}
		// io.ReadAll's growth from 512 B allocates over twice the body.
		if limit := uint64(len(body)) + 64<<10; n > limit {
			t.Errorf("a %d-B sized body allocated %d B, want at most %d", len(body), n, limit)
		}
	})
	t.Run("chunked", func(t *testing.T) {
		got, err := c.raw(ctx, "/?mode=chunked")
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("raw = %d B, %v; want the %d-B body", len(got), err, len(body))
		}
	})
	t.Run("short", func(t *testing.T) {
		got, err := c.raw(ctx, "/?mode=declare&length="+strconv.Itoa(len(body)+100))
		if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
			t.Fatalf("raw = %d B, %v; want no data and io.ErrUnexpectedEOF", len(got), err)
		}
	})
	t.Run("over-cap", func(t *testing.T) {
		var err error
		n := allocated(func() { _, err = c.raw(ctx, "/?mode=declare&length="+strconv.Itoa(1<<40)) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("raw err = %v, want io.ErrUnexpectedEOF", err)
		}
		if limit := uint64(maxPresize) + 4<<20; n > limit {
			t.Errorf("a declared 1 TiB allocated %d B, want at most %d", n, limit)
		}
	})
}
