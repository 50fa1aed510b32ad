package server

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// lockedBuffer is a log sink safe for the concurrent writes of a parallel
// restore.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestParallelRestoreMatchesSerial restores a data dir of ten datasets —
// one with a damaged manifest, two with WAL tails no re-freeze drained —
// on one worker and on eight, and requires the same registry from both:
// ids, names, points, staged points and WAL sequence. The damaged dataset
// is skipped with its warning, and the next upload's id lands above every
// restored one.
func TestParallelRestoreMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Threads: 1, DataDir: dir, RefreezePoints: 1 << 20}
	s1, ts1, c1 := startGeneration(t, cfg)
	pts := testPoints(t, 3000)
	for i := 1; i <= 10; i++ {
		c1.doJSON("POST", fmt.Sprintf("/v1/datasets?name=set-%d", i),
			pointsCSV(t, pts[100*i:100*i+150+20*i]), http.StatusCreated)
	}
	c1.doJSON("POST", "/v1/datasets/d3/points", pointsCSV(t, pts[2500:2560]), http.StatusAccepted)
	c1.doJSON("POST", "/v1/datasets/d3/points", pointsCSV(t, pts[2600:2610]), http.StatusAccepted)
	c1.doJSON("POST", "/v1/datasets/d10/points", pointsCSV(t, pts[2700:2790]), http.StatusAccepted)
	s1.Close() // abrupt: the staged appends stay in the WAL
	ts1.Close()
	if err := os.WriteFile(filepath.Join(dir, "d4", "manifest.json"), []byte(`{"id": "d4`), 0o644); err != nil {
		t.Fatal(err)
	}

	restore := func(workers int) (*registry, string) {
		var log lockedBuffer
		c := cfg
		c.Logger = slog.New(slog.NewTextHandler(&log, nil))
		g := newRegistry(c)
		g.onPersist = s1.registry.onPersist // the server's hook, observed concurrently
		g.loadAll(workers)
		return g, log.String()
	}
	serial, serialLog := restore(1)
	par, parLog := restore(8)

	ids := func(g *registry) []string {
		var out []string
		for _, d := range g.list() {
			out = append(out, d.id)
		}
		slices.Sort(out)
		return out
	}
	want := []string{"d1", "d10", "d2", "d3", "d5", "d6", "d7", "d8", "d9"}
	if got := ids(serial); !slices.Equal(got, want) {
		t.Fatalf("one-worker restore ids = %v, want %v", got, want)
	}
	if got := ids(par); !slices.Equal(got, want) {
		t.Fatalf("eight-worker restore ids = %v, want %v", got, want)
	}
	for _, id := range want {
		a, _ := serial.get(id)
		b, _ := par.get(id)
		if a.name != b.name || a.walSeq != b.walSeq ||
			!slices.Equal(a.points, b.points) || !slices.Equal(a.staged, b.staged) {
			t.Fatalf("%s: eight-worker restore (%q, walSeq %d, %d points, %d staged) differs from one-worker (%q, %d, %d, %d)",
				id, b.name, b.walSeq, len(b.points), len(b.staged), a.name, a.walSeq, len(a.points), len(a.staged))
		}
	}
	for id, staged := range map[string]int{"d3": 70, "d10": 90, "d5": 0} {
		if d, _ := par.get(id); len(d.staged) != staged {
			t.Fatalf("%s restored %d staged points, want %d", id, len(d.staged), staged)
		}
	}
	for _, log := range []string{serialLog, parLog} {
		if !strings.Contains(log, "dataset restore skipped") || !strings.Contains(log, "entry=d4") {
			t.Fatalf("damaged d4 not skipped with a warning:\n%s", log)
		}
		if n := strings.Count(log, "dataset restored"); n != len(want) {
			t.Fatalf("%d \"dataset restored\" lines, want %d:\n%s", n, len(want), log)
		}
	}
	if got := par.seq.Load(); got != 10 {
		t.Fatalf("id sequence resumed at %d, want 10", got)
	}

	s2, ts2, c2 := startGeneration(t, cfg)
	defer drainAndStop(t, s2, ts2)
	up := c2.doJSON("POST", "/v1/datasets?name=next", pointsCSV(t, pts[:200]), http.StatusCreated)
	if up["id"] != "d11" {
		t.Fatalf("post-restore upload id = %v, want d11", up["id"])
	}
}
