package server

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdbscan"
	"vdbscan/internal/persist"
)

// dataset is one uploaded point database and its frozen index. The index is
// immutable; appended points are staged and folded in by a re-freeze (a
// full rebuild installed atomically), so jobs always run against a
// consistent frozen snapshot and never against a half-built index. Uploads
// and re-freezes build the default cell grid; a dataset restored from an
// older R-tree snapshot serves that index until its first re-freeze.
type dataset struct {
	id      string
	name    string
	created time.Time

	mu         sync.Mutex
	points     []vdbscan.Point // points covered by the installed index
	index      *vdbscan.Index
	links      *vdbscan.Links    // the installed index's ε-chain heads; never persisted
	kind       vdbscan.IndexKind // the installed index's ε-search substrate
	staged     []vdbscan.Point   // appended, awaiting the next re-freeze
	version    int               // bumped at every install
	refreezing bool
	flushCh    chan struct{} // closed when the in-flight re-freeze installs
	deleted    bool

	// Durable-store state (see persistence.go); zero when the server runs
	// without a data dir or this dataset's persistence failed and degraded
	// it to memory-only.
	dir    string       // this dataset's directory under Config.DataDir
	wal    *persist.WAL // open segment wal.<walSeq>; nil until the first append
	walSeq int          // current WAL segment sequence
}

// snapshot returns the dataset's current frozen index, its Links library,
// its point count, and the install version — what a batch run binds to.
func (d *dataset) snapshot() (*vdbscan.Index, *vdbscan.Links, int, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.index, d.links, len(d.points), d.version
}

// registry is the dataset store.
type registry struct {
	cfg Config
	mu  sync.Mutex
	m   map[string]*dataset
	seq atomic.Int64

	// onRefreeze, when set (by Server.New), observes each completed
	// re-freeze: the dataset, the point count the new index covers, and the
	// rebuild duration. Kept as a hook so the registry stays usable without
	// a metrics plane.
	onRefreeze func(d *dataset, points int, dur time.Duration)

	// onPersist, when set (by Server.New), observes each durable-store
	// operation: op is one of persistOpWrite, persistOpLoad,
	// persistOpWALReplay (WAL appends are not reported — they are
	// per-request, and the request path already carries latency metrics).
	onPersist func(d *dataset, op string, dur time.Duration)

	// refreezeBarrier, when set (tests only), is called by refreeze after
	// the rebuild input is captured and before the rebuild runs, off every
	// lock. Tests block in it to hold a dataset in the refreezing state
	// deterministically (e.g. the delete-mid-refreeze conflict test).
	refreezeBarrier func(d *dataset)

	log *slog.Logger
}

func newRegistry(cfg Config) *registry {
	log := cfg.Logger
	if log == nil {
		log = discardLogger()
	}
	return &registry{cfg: cfg, m: map[string]*dataset{}, log: log}
}

// create indexes points and registers the dataset.
func (g *registry) create(name string, points []vdbscan.Point) (*dataset, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("dataset has no points")
	}
	idx := vdbscan.NewIndex(points)
	d := &dataset{
		id:      fmt.Sprintf("d%d", g.seq.Add(1)),
		name:    name,
		created: time.Now(),
		kind:    vdbscan.IndexGrid,
		points:  points,
		index:   idx,
		links:   idx.NewLinks(),
		version: 1,
	}
	if d.name == "" {
		d.name = d.id
	}
	g.persistCreate(d)
	g.mu.Lock()
	g.m[d.id] = d
	g.mu.Unlock()
	return d, nil
}

func (g *registry) get(id string) (*dataset, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, ok := g.m[id]
	return d, ok
}

// Registry mutation errors; handlers.go maps them onto the API surface
// (404 not_found, 409 conflict).
var (
	errNoDataset      = errors.New("no such dataset")
	errRefreezing     = errors.New("dataset re-freeze in flight")
	errDatasetDeleted = errors.New("dataset deleted")
)

// delete removes the dataset, unless a background re-freeze is installing a
// new index for it — deleting the on-disk snapshot out from under that
// install used to surface as a 500-class internal race; now it is an
// explicit errRefreezing conflict the client can retry after the install.
// Lock order is g.mu then d.mu, the same nesting loadAll uses; refreeze
// never holds d.mu while taking g.mu, so this cannot deadlock.
func (g *registry) delete(id string) error {
	g.mu.Lock()
	d, ok := g.m[id]
	if !ok {
		g.mu.Unlock()
		return errNoDataset
	}
	d.mu.Lock()
	if d.refreezing {
		d.mu.Unlock()
		g.mu.Unlock()
		return errRefreezing
	}
	d.deleted = true
	g.persistDelete(d)
	d.mu.Unlock()
	delete(g.m, id)
	g.mu.Unlock()
	return nil
}

func (g *registry) list() []*dataset {
	g.mu.Lock()
	out := make([]*dataset, 0, len(g.m))
	for _, d := range g.m {
		out = append(out, d)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (g *registry) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// append stages points onto d and, once the staged backlog reaches the
// re-freeze threshold, kicks a background re-freeze that rebuilds the index
// over points+staged and installs it atomically. Returns the staged count
// and whether a re-freeze is now in flight. An append that loses the race
// with a concurrent delete gets errDatasetDeleted (409 conflict at the
// API): staging points — and writing WAL records — onto a dataset whose
// directory was just removed would silently drop them.
func (g *registry) append(d *dataset, pts []vdbscan.Point) (staged int, refreezing bool, err error) {
	d.mu.Lock()
	if d.deleted {
		d.mu.Unlock()
		return 0, false, errDatasetDeleted
	}
	d.staged = append(d.staged, pts...)
	g.walAppend(d, pts) // under d.mu: WAL record order matches d.staged
	staged = len(d.staged)
	kick := staged >= g.cfg.RefreezePoints && !d.refreezing
	if kick {
		d.refreezing = true
		d.flushCh = make(chan struct{})
	}
	refreezing = d.refreezing
	d.mu.Unlock()
	if kick {
		go g.refreeze(d)
	}
	return staged, refreezing, nil
}

// refreeze rebuilds d's index including every point staged at the moment
// the rebuild starts. Points appended during the rebuild stay staged for
// the next one.
func (g *registry) refreeze(d *dataset) {
	began := time.Now()
	d.mu.Lock()
	base, add := d.points, d.staged
	// Rotate the WAL in the same critical section that captures the
	// rebuild's input: the closed segment holds exactly add, so the
	// snapshot written after install can fold it and nothing else.
	folded := g.rotateWAL(d)
	d.mu.Unlock()

	if g.refreezeBarrier != nil {
		g.refreezeBarrier(d)
	}

	combined := make([]vdbscan.Point, 0, len(base)+len(add))
	combined = append(combined, base...)
	combined = append(combined, add...)
	idx := vdbscan.NewIndex(combined) // the expensive part, off-lock

	// Durable before visible: once an observer can read the new generation
	// (or refreezing == false), a kill must restart on it, not on the
	// previous snapshot with the fold back in the WAL as staged points.
	g.persistInstall(d, idx, folded)
	d.mu.Lock()
	d.points = combined
	d.index = idx
	d.links = idx.NewLinks() // the old version's heads go with its index
	d.kind = vdbscan.IndexGrid
	d.staged = d.staged[len(add):]
	d.version++
	d.refreezing = false
	ch := d.flushCh
	d.flushCh = nil
	d.mu.Unlock()
	if g.onRefreeze != nil {
		g.onRefreeze(d, len(combined), time.Since(began))
	}
	close(ch)
}

// flushRefreezes folds every dataset's staged points in and waits for all
// in-flight re-freezes — the drain path's "no appended point is silently
// dropped" guarantee.
func (g *registry) flushRefreezes() {
	for _, d := range g.list() {
		g.flushDataset(d)
	}
}

// flushDataset drives one dataset to the staged-empty, no-refreeze-in-flight
// state.
func (g *registry) flushDataset(d *dataset) {
	for {
		d.mu.Lock()
		switch {
		case d.refreezing:
			ch := d.flushCh
			d.mu.Unlock()
			<-ch // wait for the install, then re-check for new staging
		case len(d.staged) > 0:
			d.refreezing = true
			d.flushCh = make(chan struct{})
			d.mu.Unlock()
			g.refreeze(d)
		default:
			d.mu.Unlock()
			return
		}
	}
}
