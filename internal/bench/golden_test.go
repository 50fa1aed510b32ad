package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/figures.golden (UPDATE_GOLDEN=1 go test
// -run TestFiguresGolden ./internal/bench) after a deliberate change to what
// Figs. 4–8 report.
var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

var (
	// secondsTok is every rendered duration ("0.012s").
	secondsTok = regexp.MustCompile(`\b\d+\.\d+s\b`)
	// ratioAfterTimes is the speedup printed right after a RefTime/VDBTime
	// pair of (already masked) durations.
	ratioAfterTimes = regexp.MustCompile(`(<t>\s+<t>\s+)\S+`)
	dashes          = regexp.MustCompile(`-{2,}`)
	spaces          = regexp.MustCompile(` +`)
)

// maskTimings removes everything wall-clock dependent from harness output:
// durations, the speedup ratio derived from them, and the column padding
// and separator widths their lengths set.
func maskTimings(s string) string {
	s = secondsTok.ReplaceAllString(s, "<t>")
	s = ratioAfterTimes.ReplaceAllString(s, "${1}<ratio>")
	s = dashes.ReplaceAllString(s, "--")
	return spaces.ReplaceAllString(s, " ")
}

// TestFiguresGolden pins the reproduction byte for byte: at one thread
// every Alg. 3/4 counter, reuse fraction, from-scratch flag and quality
// score that Figs. 4–8 print is a function of the datasets alone.
func TestFiguresGolden(t *testing.T) {
	s, buf := tinySuite()
	s.Threads = 1
	for _, fig := range []func() error{s.Fig4, s.Fig5, s.Fig6, s.Fig7, s.Fig8} {
		if err := fig(); err != nil {
			t.Fatal(err)
		}
	}
	got := maskTimings(buf.String())
	path := filepath.Join("testdata", "figures.golden")
	if updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got: %q\nwant: %q", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
