package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"vdbscan"
	"vdbscan/internal/persist"
)

// Disk layout under Config.DataDir — one directory per dataset:
//
//	<DataDir>/<id>/manifest.json   identity: id, name, created, r, kind
//	<DataDir>/<id>/snapshot        page-aligned frozen-index image
//	<DataDir>/<id>/wal.<seq>       appends staged after snapshot <seq> was cut
//
// The snapshot's Sequence field is the highest WAL segment folded into it;
// on load, segments above it replay into the staged backlog. Segment
// rotation happens inside the same critical section that captures a
// re-freeze's input, so a segment's contents are exactly one re-freeze's
// staged points and the fold/replay boundary can never split a record.
//
// Persistence is strictly additive to the in-memory registry: with no
// DataDir every path below is a no-op, and any persistence failure is
// logged and degrades the dataset to memory-only rather than failing the
// request that triggered it.

// persistence ops reported through registry.onPersist.
const (
	persistOpWrite     = "write"
	persistOpLoad      = "load"
	persistOpWALReplay = "wal_replay"
)

// manifest is the identity block of one persisted dataset. The index
// geometry (r, kind) rides along so a re-freeze after restart rebuilds
// with the same layout the uploader chose.
type manifest struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	Created time.Time `json:"created"`
	R       int       `json:"r"`
	Kind    int       `json:"kind"`
}

func (g *registry) datasetDir(id string) string {
	return filepath.Join(g.cfg.DataDir, id)
}

// persistCreate gives a freshly created dataset its on-disk form: a
// directory, a manifest, and a synchronous initial snapshot. On any
// failure the dataset stays memory-only (d.dir empty) and the error is
// logged — an upload should not fail because the disk is unhappy.
func (g *registry) persistCreate(d *dataset) {
	if g.cfg.DataDir == "" {
		return
	}
	dir := g.datasetDir(d.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		g.log.Warn("dataset persistence disabled", "dataset", d.id, "err", err)
		return
	}
	mf, err := json.Marshal(manifest{
		ID: d.id, Name: d.name, Created: d.created, R: d.r, Kind: int(d.kind),
	})
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "manifest.json"), mf, 0o644)
	}
	if err == nil {
		began := time.Now()
		err = d.index.SaveSnapshot(filepath.Join(dir, "snapshot"), 1)
		if err == nil && g.onPersist != nil {
			g.onPersist(d, persistOpWrite, time.Since(began))
		}
	}
	if err != nil {
		g.log.Warn("dataset persistence disabled", "dataset", d.id, "err", err)
		os.RemoveAll(dir)
		return
	}
	d.dir = dir
	d.walSeq = 2 // segment 1 is, by definition, folded into the snapshot
}

// walAppend logs freshly staged points. Called with d.mu held, which
// orders WAL records identically to d.staged and excludes rotation.
func (g *registry) walAppend(d *dataset, pts []vdbscan.Point) {
	if d.dir == "" {
		return
	}
	if d.wal == nil {
		w, err := persist.OpenWAL(d.walPath(d.walSeq))
		if err != nil {
			g.log.Warn("wal open failed; appends to this dataset are memory-only until the next re-freeze",
				"dataset", d.id, "err", err)
			return
		}
		d.wal = w
	}
	if err := d.wal.Append(pts); err != nil {
		g.log.Warn("wal append failed", "dataset", d.id, "err", err)
	}
}

func (d *dataset) walPath(seq int) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal.%d", seq))
}

// rotateWAL closes the current segment and opens the next epoch. Called
// with d.mu held, in the same critical section that captures a re-freeze's
// input, so the closed segment holds exactly the captured staged points.
// Returns the sequence the pending snapshot will fold (0 = not persisted).
func (g *registry) rotateWAL(d *dataset) (folded int) {
	if d.dir == "" {
		return 0
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			g.log.Warn("wal close failed", "dataset", d.id, "err", err)
		}
		d.wal = nil
	}
	folded = d.walSeq
	d.walSeq++
	return folded
}

// persistInstall makes a re-freeze durable before refreeze installs it:
// snapshot the new index under the folded sequence, then retire every
// segment it covers.
// Runs off d.mu (snapshotting is the expensive part); the per-refreeze
// serialization of the caller is its mutual exclusion.
func (g *registry) persistInstall(d *dataset, idx *vdbscan.Index, folded int) {
	if d.dir == "" || folded == 0 {
		return
	}
	began := time.Now()
	if err := idx.SaveSnapshot(filepath.Join(d.dir, "snapshot"), uint64(folded)); err != nil {
		// The old snapshot is still in place and the folded segments are
		// still on disk, so a restart replays its way back to this state.
		g.log.Warn("snapshot write failed; previous generation retained",
			"dataset", d.id, "err", err)
		return
	}
	if g.onPersist != nil {
		g.onPersist(d, persistOpWrite, time.Since(began))
	}
	for seq := folded; seq >= 1; seq-- {
		p := d.walPath(seq)
		if err := os.Remove(p); err != nil {
			if os.IsNotExist(err) {
				break // older segments were already retired
			}
			g.log.Warn("wal retire failed", "dataset", d.id, "segment", seq, "err", err)
		}
	}
}

// persistDelete removes a deleted dataset's directory. Called with d.mu
// held (delete marks the dataset under the same lock).
func (g *registry) persistDelete(d *dataset) {
	if d.dir == "" {
		return
	}
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	if err := os.RemoveAll(d.dir); err != nil {
		g.log.Warn("dataset directory removal failed", "dataset", d.id, "err", err)
	}
	d.dir = ""
}

// loadAll scans DataDir and restores every readable dataset: snapshot
// mapped, WAL backlog replayed into the staged set, id sequence resumed
// above the highest restored id. Corrupt or half-written entries are
// logged and skipped — the server always comes up; the fallback for a
// damaged dataset is re-upload (or the staged replay of an older
// snapshot generation, which the retire order guarantees is present).
func (g *registry) loadAll() {
	if g.cfg.DataDir == "" {
		return
	}
	ents, err := os.ReadDir(g.cfg.DataDir)
	if err != nil {
		if !os.IsNotExist(err) {
			g.log.Warn("data dir scan failed", "dir", g.cfg.DataDir, "err", err)
		}
		return
	}
	maxID := int64(0)
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		d, err := g.loadDataset(g.datasetDir(ent.Name()))
		if err != nil {
			g.log.Warn("dataset restore skipped", "entry", ent.Name(), "err", err)
			continue
		}
		g.mu.Lock()
		g.m[d.id] = d
		g.mu.Unlock()
		if n, err := strconv.ParseInt(strings.TrimPrefix(d.id, "d"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
		g.log.Info("dataset restored",
			"dataset", d.id, "points", len(d.points), "staged", len(d.staged))
	}
	// Resume id allocation above every restored dataset so a new upload
	// can never collide with (and silently shadow) a restored directory.
	for {
		cur := g.seq.Load()
		if cur >= maxID || g.seq.CompareAndSwap(cur, maxID) {
			return
		}
	}
}

// loadDataset restores one dataset directory: manifest, mapped snapshot,
// WAL replay.
func (g *registry) loadDataset(dir string) (*dataset, error) {
	mf, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(mf, &man); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if man.ID == "" || man.ID != filepath.Base(dir) {
		return nil, fmt.Errorf("manifest id %q does not match directory", man.ID)
	}

	began := time.Now()
	idx, info, err := vdbscan.LoadSnapshot(filepath.Join(dir, "snapshot"))
	if err != nil {
		return nil, err
	}
	d := &dataset{
		id:      man.ID,
		name:    man.Name,
		created: man.Created,
		r:       man.R,
		kind:    vdbscan.IndexKind(man.Kind),
		points:  idx.Points(),
		index:   idx,
		version: 1,
		dir:     dir,
		walSeq:  int(info.Sequence) + 1,
	}
	if g.onPersist != nil {
		g.onPersist(d, persistOpLoad, time.Since(began))
	}

	began = time.Now()
	staged, walSeq, err := g.replayWALs(d, int(info.Sequence))
	if err != nil {
		return nil, err
	}
	d.staged = staged
	if walSeq > d.walSeq {
		d.walSeq = walSeq
	}
	if g.onPersist != nil {
		g.onPersist(d, persistOpWALReplay, time.Since(began))
	}
	return d, nil
}

// replayWALs replays every segment above folded, in sequence order, and
// returns the staged backlog plus the highest segment seen. A partial
// tail — the normal residue of a crash mid-append — keeps the valid
// prefix, rewrites the segment to just that prefix (so the next append
// lands on a clean tail), and stops: nothing after a torn record is
// trusted.
func (g *registry) replayWALs(d *dataset, folded int) ([]vdbscan.Point, int, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, 0, err
	}
	var seqs []int
	for _, ent := range ents {
		rest, ok := strings.CutPrefix(ent.Name(), "wal.")
		if !ok {
			continue
		}
		seq, err := strconv.Atoi(rest)
		if err != nil || seq <= folded {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)

	var staged []vdbscan.Point
	maxSeq := 0
	for _, seq := range seqs {
		path := d.walPath(seq)
		pts, err := persist.ReplayWAL(path)
		staged = append(staged, pts...)
		maxSeq = seq
		if err != nil {
			if !errors.Is(err, persist.ErrWALPartial) {
				return nil, 0, err
			}
			g.log.Warn("wal tail dropped (crash residue)",
				"dataset", d.id, "segment", seq, "points_kept", len(pts))
			if err := rewriteWAL(path, pts); err != nil {
				return nil, 0, fmt.Errorf("wal rewrite: %w", err)
			}
			break
		}
	}
	return staged, maxSeq, nil
}

// rewriteWAL atomically replaces the segment at path with one holding
// exactly pts.
func rewriteWAL(path string, pts []vdbscan.Point) error {
	tmp := path + ".rewrite"
	w, err := persist.OpenWAL(tmp)
	if err != nil {
		return err
	}
	if err := w.Append(pts); err != nil {
		w.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
