// Package metrics provides the atomic work counters the evaluation harness
// reports next to wall-clock time.
//
// The paper's figures are driven by two machine-dependent effects — the
// memory-bound ε-neighborhood search and multi-core parallelism. On hardware
// different from the authors' 16-core Xeon the absolute times shift, but the
// *work* VariantDBSCAN saves (ε-searches skipped, candidate points never
// fetched, points reused from completed variants) is deterministic. Counters
// here capture that work so every figure's shape can be checked exactly.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counters accumulates work metrics. All methods are safe for concurrent
// use; a single Counters instance is typically shared by all goroutines
// clustering one variant.
//
// Every Add* method on a nil *Counters is a guaranteed no-op: the nil check
// is the first statement of each method, there is no other work on that
// path, and the methods are small enough to inline, so uninstrumented runs
// (m == nil throughout the hot path) pay only a predictable branch per
// call. Callers therefore never need to guard increments with their own
// nil tests.
//
// For instrumented hot paths shared by many goroutines, prefer a per-worker
// Local flushed once per work chunk over per-call Add*: each Add* is one
// atomic read-modify-write on a cache line contended by every worker,
// which is measurably slower than batched flushes (see
// BenchmarkCountersContention in this package).
//
// The cell-major parallel runner (internal/dbscan) decides most points by
// counting a cell, with no search, and links dense cells pairwise. Its
// closest-pair work is booked under the same names so a run's cost stays one
// comparable number: every point-to-rectangle and point-to-point test of a
// cell-pair scan is a candidate examined, every cell pair tested is a node
// visited; searches and neighbors count the sparse-cell points' ε-searches
// only.
type Counters struct {
	neighborSearches   atomic.Int64 // ε-neighborhood searches performed (Algorithm 2 calls)
	candidatesExamined atomic.Int64 // points distance-filtered after index lookup, plus closest-pair tests
	neighborsFound     atomic.Int64 // points that passed the ε filter of a search
	nodesVisited       atomic.Int64 // R-tree nodes or grid cells touched, plus cell pairs tested (memory-access proxy)
	pointsReused       atomic.Int64 // points copied from a completed variant's clusters
	clustersReused     atomic.Int64 // seed clusters successfully expanded
	clustersDestroyed  atomic.Int64 // seed clusters invalidated during reuse
}

// Snapshot is a plain-value copy of the counters at one instant.
type Snapshot struct {
	NeighborSearches   int64
	CandidatesExamined int64
	NeighborsFound     int64
	NodesVisited       int64
	PointsReused       int64
	ClustersReused     int64
	ClustersDestroyed  int64
}

// AddNeighborSearches records n ε-neighborhood searches.
func (c *Counters) AddNeighborSearches(n int64) {
	if c != nil {
		c.neighborSearches.Add(n)
	}
}

// AddCandidatesExamined records n candidate points distance-filtered.
func (c *Counters) AddCandidatesExamined(n int64) {
	if c != nil {
		c.candidatesExamined.Add(n)
	}
}

// AddNeighborsFound records n points found within ε.
func (c *Counters) AddNeighborsFound(n int64) {
	if c != nil {
		c.neighborsFound.Add(n)
	}
}

// AddNodesVisited records n R-tree nodes touched.
func (c *Counters) AddNodesVisited(n int64) {
	if c != nil {
		c.nodesVisited.Add(n)
	}
}

// AddPointsReused records n points copied from a previous variant.
func (c *Counters) AddPointsReused(n int64) {
	if c != nil {
		c.pointsReused.Add(n)
	}
}

// AddClustersReused records n seed clusters expanded.
func (c *Counters) AddClustersReused(n int64) {
	if c != nil {
		c.clustersReused.Add(n)
	}
}

// AddClustersDestroyed records n seed clusters invalidated.
func (c *Counters) AddClustersDestroyed(n int64) {
	if c != nil {
		c.clustersDestroyed.Add(n)
	}
}

// Snapshot returns a copy of the current counter values. Snapshot on a nil
// receiver returns the zero Snapshot, so instrumentation can be optional.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		NeighborSearches:   c.neighborSearches.Load(),
		CandidatesExamined: c.candidatesExamined.Load(),
		NeighborsFound:     c.neighborsFound.Load(),
		NodesVisited:       c.nodesVisited.Load(),
		PointsReused:       c.pointsReused.Load(),
		ClustersReused:     c.clustersReused.Load(),
		ClustersDestroyed:  c.clustersDestroyed.Load(),
	}
}

// AddSnapshot accumulates a whole snapshot into the counters — the
// aggregation edge between a per-variant counter set (whose Snapshot is the
// variant's own work delta, reported in trace events) and the run-wide
// totals. Nil-safe and skip-on-zero like the scalar Add* methods.
func (c *Counters) AddSnapshot(s Snapshot) {
	if c == nil {
		return
	}
	if s.NeighborSearches != 0 {
		c.neighborSearches.Add(s.NeighborSearches)
	}
	if s.CandidatesExamined != 0 {
		c.candidatesExamined.Add(s.CandidatesExamined)
	}
	if s.NeighborsFound != 0 {
		c.neighborsFound.Add(s.NeighborsFound)
	}
	if s.NodesVisited != 0 {
		c.nodesVisited.Add(s.NodesVisited)
	}
	if s.PointsReused != 0 {
		c.pointsReused.Add(s.PointsReused)
	}
	if s.ClustersReused != 0 {
		c.clustersReused.Add(s.ClustersReused)
	}
	if s.ClustersDestroyed != 0 {
		c.clustersDestroyed.Add(s.ClustersDestroyed)
	}
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.neighborSearches.Store(0)
	c.candidatesExamined.Store(0)
	c.neighborsFound.Store(0)
	c.nodesVisited.Store(0)
	c.pointsReused.Store(0)
	c.clustersReused.Store(0)
	c.clustersDestroyed.Store(0)
}

// Local is a plain, non-atomic accumulator owned by one worker goroutine.
// Workers on hot paths (one ε-search per point) add to their Local with
// ordinary arithmetic and flush the batch into the shared Counters once per
// work chunk, replacing four contended atomic RMWs per search with four per
// chunk. The zero value is ready to use.
type Local struct {
	NeighborSearches   int64
	CandidatesExamined int64
	NeighborsFound     int64
	NodesVisited       int64
	PointsReused       int64
	ClustersReused     int64
	ClustersDestroyed  int64
}

// FlushTo adds the accumulated values to c and resets l. Flushing to a nil
// Counters only resets l, so instrumentation stays optional end to end.
func (l *Local) FlushTo(c *Counters) {
	if c != nil {
		if l.NeighborSearches != 0 {
			c.neighborSearches.Add(l.NeighborSearches)
		}
		if l.CandidatesExamined != 0 {
			c.candidatesExamined.Add(l.CandidatesExamined)
		}
		if l.NeighborsFound != 0 {
			c.neighborsFound.Add(l.NeighborsFound)
		}
		if l.NodesVisited != 0 {
			c.nodesVisited.Add(l.NodesVisited)
		}
		if l.PointsReused != 0 {
			c.pointsReused.Add(l.PointsReused)
		}
		if l.ClustersReused != 0 {
			c.clustersReused.Add(l.ClustersReused)
		}
		if l.ClustersDestroyed != 0 {
			c.clustersDestroyed.Add(l.ClustersDestroyed)
		}
	}
	*l = Local{}
}

// Sub returns the element-wise difference s - o; used to attribute work to
// one phase by snapshotting before and after.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		NeighborSearches:   s.NeighborSearches - o.NeighborSearches,
		CandidatesExamined: s.CandidatesExamined - o.CandidatesExamined,
		NeighborsFound:     s.NeighborsFound - o.NeighborsFound,
		NodesVisited:       s.NodesVisited - o.NodesVisited,
		PointsReused:       s.PointsReused - o.PointsReused,
		ClustersReused:     s.ClustersReused - o.ClustersReused,
		ClustersDestroyed:  s.ClustersDestroyed - o.ClustersDestroyed,
	}
}

// Add returns the element-wise sum s + o.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		NeighborSearches:   s.NeighborSearches + o.NeighborSearches,
		CandidatesExamined: s.CandidatesExamined + o.CandidatesExamined,
		NeighborsFound:     s.NeighborsFound + o.NeighborsFound,
		NodesVisited:       s.NodesVisited + o.NodesVisited,
		PointsReused:       s.PointsReused + o.PointsReused,
		ClustersReused:     s.ClustersReused + o.ClustersReused,
		ClustersDestroyed:  s.ClustersDestroyed + o.ClustersDestroyed,
	}
}

// String implements fmt.Stringer.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"searches=%d candidates=%d neighbors=%d nodes=%d reusedPts=%d reusedClus=%d destroyed=%d",
		s.NeighborSearches, s.CandidatesExamined, s.NeighborsFound, s.NodesVisited,
		s.PointsReused, s.ClustersReused, s.ClustersDestroyed)
}
