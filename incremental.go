package vdbscan

import (
	"vdbscan/internal/incremental"
	"vdbscan/internal/metrics"
)

// Incremental maintains a DBSCAN clustering under a stream of point
// insertions and deletions (IncrementalDBSCAN, Ester et al. 1998) — the
// companion to ClusterVariants for monitoring workloads where observations
// arrive continuously and re-clustering every frame is wasteful.
//
// Labels are indexed by insertion order; deleted points report Noise.
// Incremental is not safe for concurrent use.
type Incremental struct {
	c *incremental.Clusterer
	w *Work
	m *metrics.Counters
}

// NewIncremental returns an empty incremental clusterer for the given
// parameters. A streaming clusterer is an index and a run in one, so it
// accepts the full Option set; only WithWork applies.
func NewIncremental(p Params, opts ...Option) (*Incremental, error) {
	cfg := buildConfig(opts)
	var m *metrics.Counters
	if cfg.work != nil {
		m = &metrics.Counters{}
	}
	c, err := incremental.New(p, m)
	if err != nil {
		return nil, wrapErr(err)
	}
	inc := &Incremental{c: c, w: cfg.work}
	if cfg.work != nil {
		// Keep a live view: snapshot on demand in Labels/Len callers is
		// overkill; update on each mutate instead (see methods).
		inc.m = m
	}
	return inc, nil
}

// m holds the counters when work tracking was requested.
func (x *Incremental) syncWork() {
	if x.w != nil && x.m != nil {
		*x.w = x.m.Snapshot()
	}
}

// Insert adds a point and updates the clustering.
func (x *Incremental) Insert(p Point) {
	x.c.Insert(p)
	x.syncWork()
}

// InsertBatch adds points in order.
func (x *Incremental) InsertBatch(pts []Point) {
	x.c.InsertBatch(pts)
	x.syncWork()
}

// Delete removes the i-th inserted point (0-based insertion order),
// demoting cores and splitting clusters as needed.
func (x *Incremental) Delete(i int) error {
	err := x.c.Delete(i)
	x.syncWork()
	return wrapErr(err)
}

// Len returns the number of insertions, including deleted points.
func (x *Incremental) Len() int { return x.c.Len() }

// LiveLen returns the number of points currently clustered.
func (x *Incremental) LiveLen() int { return x.c.LiveLen() }

// Labels materializes the current clustering in insertion order.
func (x *Incremental) Labels() *Clustering { return x.c.Labels() }
