// Command vdbscand serves VariantDBSCAN clustering over HTTP/JSON.
//
// Datasets are uploaded once and indexed once; every job that targets a
// dataset shares its frozen index and the index's library of ε-chain heads
// (vdbscan.Links). An idle daemon runs each job at once; jobs for one
// dataset that queue while every runner is busy are coalesced into a
// single ClusterVariants run over the union of their variant lists.
//
// Usage:
//
//	vdbscand -addr :8714 -threads 4
//
// Every flag also reads a VDBSCAND_* environment variable as its default
// (flag beats environment beats built-in), e.g.:
//
//	VDBSCAND_ADDR=:9000 VDBSCAND_RUNNERS=4 vdbscand
//
// Endpoints (see internal/server for the full contract; every /v1 route
// also exists under /v2 with the versioned error envelope, tenant-aware job
// documents, and GET /v2/tenants/self):
//
//	POST   /v1/datasets            upload a CSV dataset (?name=); indexed on the cell grid
//	POST   /v1/datasets/{id}/jobs  submit a variant list, get a job ID
//	GET    /v1/jobs/{id}           poll (?wait=10s long-polls)
//	GET    /v1/jobs/{id}/labels    per-variant labels CSV (?variant=N)
//	GET    /v1/jobs/{id}/trace     execution trace (?format=chrome|text)
//	GET    /v1/jobs/{id}/events    live job progress as Server-Sent Events
//	GET    /v2/tenants/self        the calling tenant's limits and usage
//	GET    /metrics                Prometheus text exposition
//
// With -keys-file (or inline VDBSCAND_KEYS JSON) configured, the data plane
// requires an API key — Authorization: Bearer or X-Api-Key — and each key
// maps to a tenant with optional request-rate, concurrent-jobs, and
// work-quota limits. Finished job results are evicted after -job-ttl
// (410 Gone afterwards).
//
// With -admin-addr set, a second listener serves the operator plane:
// /debug/pprof/*, /admin/runtime, /admin/goroutines, plus /metrics and
// /healthz — kept off the service port so profiling endpoints are never
// exposed to clustering clients.
//
// Structured logs (log/slog) go to stderr; -log-format picks text or JSON
// and -log-level picks debug|info|warn|error. Every line carries the
// request/job/batch/dataset IDs involved, so one job's admission, batch
// run, and completion grep together.
//
// With -data-dir set, datasets are durable: each upload and re-freeze
// writes a page-aligned snapshot of the frozen index, appended points go
// to a per-dataset write-ahead log, and a relaunch pointed at the same
// directory restores every dataset via mmap — no re-parse, no re-index —
// before the listener accepts its first request.
//
// On SIGTERM/SIGINT the daemon drains: admission stops (new work gets 503),
// running and queued batches finish, staged dataset appends are folded into
// their indexes, and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vdbscan/internal/cliutil"
	"vdbscan/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vdbscand:", err)
		os.Exit(1)
	}
}

// envDefaults resolves the VDBSCAND_* environment into flag defaults,
// erroring on set-but-unparsable values instead of silently ignoring them.
type envDefaults struct {
	addr         string
	adminAddr    string
	logLevel     string
	logFormat    string
	threads      int
	queue        int
	runners      int
	refreeze     int
	dataDir      string
	keysFile     string
	keysInline   string
	jobTimeout   time.Duration
	jobTTL       time.Duration
	drainTimeout time.Duration
}

func loadEnv() (envDefaults, error) {
	d := envDefaults{
		addr:      cliutil.EnvOr("VDBSCAND_ADDR", ":8714"),
		adminAddr: cliutil.EnvOr("VDBSCAND_ADMIN_ADDR", ""),
		logLevel:  cliutil.EnvOr("VDBSCAND_LOG_LEVEL", "info"),
		logFormat: cliutil.EnvOr("VDBSCAND_LOG_FORMAT", "text"),
	}
	var err error
	if d.threads, err = cliutil.EnvIntOr("VDBSCAND_THREADS", 1); err != nil {
		return d, err
	}
	if d.queue, err = cliutil.EnvIntOr("VDBSCAND_QUEUE", server.DefaultQueueDepth); err != nil {
		return d, err
	}
	if d.runners, err = cliutil.EnvIntOr("VDBSCAND_RUNNERS", server.DefaultRunners); err != nil {
		return d, err
	}
	if d.refreeze, err = cliutil.EnvIntOr("VDBSCAND_REFREEZE_POINTS", server.DefaultRefreezePoints); err != nil {
		return d, err
	}
	d.dataDir = cliutil.EnvOr("VDBSCAND_DATA_DIR", "")
	d.keysFile = cliutil.EnvOr("VDBSCAND_KEYS_FILE", "")
	d.keysInline = cliutil.EnvOr("VDBSCAND_KEYS", "")
	if d.jobTimeout, err = cliutil.EnvDurationOr("VDBSCAND_JOB_TIMEOUT", server.DefaultJobTimeout); err != nil {
		return d, err
	}
	if d.jobTTL, err = cliutil.EnvDurationOr("VDBSCAND_JOB_TTL", server.DefaultJobTTL); err != nil {
		return d, err
	}
	if d.drainTimeout, err = cliutil.EnvDurationOr("VDBSCAND_DRAIN_TIMEOUT", 30*time.Second); err != nil {
		return d, err
	}
	return d, nil
}

// loadTenants resolves the tenant key set: -keys-file wins, then the inline
// VDBSCAND_KEYS JSON; both empty means the server runs open (anonymous
// tenant, no limits).
func loadTenants(keysFile, keysInline string) ([]server.TenantConfig, error) {
	switch {
	case keysFile != "":
		f, err := os.Open(keysFile)
		if err != nil {
			return nil, fmt.Errorf("keys-file: %w", err)
		}
		defer f.Close()
		tenants, err := server.ParseKeysJSON(f)
		if err != nil {
			return nil, fmt.Errorf("keys-file %s: %w", keysFile, err)
		}
		return tenants, nil
	case keysInline != "":
		tenants, err := server.ParseKeysJSON(strings.NewReader(keysInline))
		if err != nil {
			return nil, fmt.Errorf("VDBSCAND_KEYS: %w", err)
		}
		return tenants, nil
	}
	return nil, nil
}

func run() error {
	env, err := loadEnv()
	if err != nil {
		return err
	}
	addr := flag.String("addr", env.addr, "listen address")
	adminAddr := flag.String("admin-addr", env.adminAddr,
		"admin listen address for /debug/pprof and /admin/* (empty disables)")
	logLevel := flag.String("log-level", env.logLevel, "log level: debug, info, warn, or error")
	logFormat := flag.String("log-format", env.logFormat, "log format: text or json")
	threads := flag.Int("threads", env.threads, "vdbscan worker goroutines per batch run")
	queue := flag.Int("queue", env.queue, "max queued jobs before 429 backpressure")
	runners := flag.Int("runners", env.runners, "concurrent batch runs")
	refreeze := flag.Int("refreeze", env.refreeze, "staged points that trigger a dataset re-freeze")
	dataDir := flag.String("data-dir", env.dataDir,
		"directory for durable dataset snapshots and WALs; restored on startup (empty = memory-only)")
	keysFile := flag.String("keys-file", env.keysFile,
		"JSON file of tenant API keys and limits (empty = open server, anonymous tenant)")
	jobTimeout := flag.Duration("job-timeout", env.jobTimeout, "default per-job deadline")
	jobTTL := flag.Duration("job-ttl", env.jobTTL,
		"how long finished job results stay retrievable before eviction (negative = forever)")
	drainTimeout := flag.Duration("drain-timeout", env.drainTimeout, "max time to drain on SIGTERM")
	flag.Parse()

	tenants, err := loadTenants(*keysFile, env.keysInline)
	if err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		Threads:        *threads,
		QueueDepth:     *queue,
		JobTimeout:     *jobTimeout,
		Runners:        *runners,
		RefreezePoints: *refreeze,
		Logger:         logger,
		DataDir:        *dataDir,
		Tenants:        tenants,
		JobTTL:         *jobTTL,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		logger.Info("vdbscand listening",
			"addr", *addr, "threads", *threads, "queue", *queue,
			"runners", *runners)
		serveErr <- httpSrv.ListenAndServe()
	}()

	var adminSrv *http.Server
	if *adminAddr != "" {
		adminSrv = &http.Server{Addr: *adminAddr, Handler: srv.AdminHandler()}
		go func() {
			logger.Info("vdbscand admin listening", "addr", *adminAddr)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("admin listener failed", "err", err)
			}
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (handlers now 503), finish running and
	// queued batches, flush staged re-freezes — then stop the listeners.
	logger.Info("vdbscand draining", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("vdbscand drain incomplete", "err", err)
	} else {
		logger.Info("vdbscand drained")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("vdbscand http shutdown", "err", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("vdbscand admin shutdown", "err", err)
		}
	}
	srv.Close()
	return nil
}

// buildLogger assembles the slog stderr logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
