// Package cliutil holds the flag- and environment-parsing helpers shared by
// the command line tools (cmd/vdbscan, cmd/vdbscand, cmd/datagen,
// cmd/experiments).
package cliutil

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vdbscan/internal/dbscan"
)

// EnvOr returns the environment variable's value, or def when unset or
// empty. Daemons use it as the flag default so `-addr` beats
// `VDBSCAND_ADDR` beats the built-in default.
func EnvOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// EnvIntOr is EnvOr for integers. A set-but-unparsable value is an error:
// silently falling back would mask a typo'd deployment config.
func EnvIntOr(key string, def int) (int, error) {
	v := os.Getenv(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("cliutil: %s=%q: %w", key, v, err)
	}
	return n, nil
}

// EnvDurationOr is EnvOr for time.ParseDuration values ("250ms", "1m30s").
func EnvDurationOr(key string, def time.Duration) (time.Duration, error) {
	v := os.Getenv(key)
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("cliutil: %s=%q: %w", key, v, err)
	}
	return d, nil
}

// ParseFloats parses a comma-separated list of floats ("0.2, 0.4,0.6").
// Empty elements are skipped; an empty list is an error.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty float list")
	}
	return out, nil
}

// ParseInts parses a comma-separated list of ints ("4,8,16").
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("cliutil: %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty int list")
	}
	return out, nil
}

// ParseRange parses "lo:hi:step" into the inclusive arithmetic sequence it
// describes, or falls back to ParseInts for comma lists — convenient for
// the paper's B = {10, 15, ..., 100} style sets.
func ParseRange(s string) ([]int, error) {
	if !strings.Contains(s, ":") {
		return ParseInts(s)
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("cliutil: range %q, want lo:hi:step", s)
	}
	lo, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("cliutil: range lo: %w", err)
	}
	hi, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("cliutil: range hi: %w", err)
	}
	step, err := strconv.Atoi(strings.TrimSpace(parts[2]))
	if err != nil {
		return nil, fmt.Errorf("cliutil: range step: %w", err)
	}
	if step <= 0 {
		return nil, fmt.Errorf("cliutil: range step must be positive, got %d", step)
	}
	if hi < lo {
		return nil, fmt.Errorf("cliutil: range hi %d below lo %d", hi, lo)
	}
	var out []int
	for v := lo; ; v += step {
		out = append(out, v)
		// hi ≥ v, so their difference read unsigned is exact even where
		// the signed one wraps; a step past it would pass hi or overflow.
		if uint(hi)-uint(v) < uint(step) {
			return out, nil
		}
	}
}

// ParseIndexKind maps CLI spellings ("grid", "rtree"; empty = grid, the
// library default) to index kinds.
func ParseIndexKind(name string) (dbscan.IndexKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "grid":
		return dbscan.IndexGrid, nil
	case "rtree":
		return dbscan.IndexRTree, nil
	default:
		return 0, fmt.Errorf("cliutil: unknown index kind %q (want rtree or grid)", name)
	}
}
