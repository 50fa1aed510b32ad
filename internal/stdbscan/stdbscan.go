// Package stdbscan implements ST-DBSCAN (Birant & Kut, Data & Knowledge
// Engineering 2007) — the spatiotemporal DBSCAN the paper cites as its
// reference [20] for spatiotemporal applications.
//
// Ionospheric TEC observations are inherently spatiotemporal: a Traveling
// Ionospheric Disturbance is one object moving through consecutive map
// frames. ST-DBSCAN clusters points (x, y, t) with two radii:
//
//	Eps1 — spatial Euclidean radius over (x, y);
//	Eps2 — temporal radius over t;
//
// a neighbor must be within both. Core/border/noise semantics follow
// DBSCAN. The spatial search runs over the same cell grid as the rest of
// the library (internal/gridindex, through dbscan.Index), with the temporal
// filter applied to its hits.
package stdbscan

import (
	"fmt"

	"vdbscan/internal/cluster"
	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/metrics"
)

// Point is one spatiotemporal observation.
type Point struct {
	X, Y float64
	// T is the observation epoch in the caller's unit (e.g. hours).
	T float64
}

// Params are the ST-DBSCAN inputs.
type Params struct {
	// Eps1 is the spatial radius.
	Eps1 float64
	// Eps2 is the temporal radius.
	Eps2 float64
	// MinPts is the core-point threshold (the point itself counts).
	MinPts int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Eps1 <= 0 {
		return fmt.Errorf("stdbscan: eps1 must be > 0, got %g", p.Eps1)
	}
	if p.Eps2 <= 0 {
		return fmt.Errorf("stdbscan: eps2 must be > 0, got %g", p.Eps2)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("stdbscan: minpts must be >= 1, got %d", p.MinPts)
	}
	return nil
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("(eps1=%g, eps2=%g, minpts=%d)", p.Eps1, p.Eps2, p.MinPts)
}

// Index is the spatiotemporal index: the shared 2-D index over (x, y),
// whose cell grid Run sizes for Eps1, plus the aligned epoch array.
type Index struct {
	spatial *dbscan.Index
	times   []float64 // aligned with spatial's sorted point order
}

// BuildIndex indexes pts.
func BuildIndex(pts []Point) *Index {
	xy := make([]geom.Point, len(pts))
	for i, p := range pts {
		xy[i] = geom.Point{X: p.X, Y: p.Y}
	}
	spatial := dbscan.BuildIndex(xy, dbscan.IndexOptions{})
	times := make([]float64, len(pts))
	for sortedIdx, origIdx := range spatial.Fwd {
		times[sortedIdx] = pts[origIdx].T
	}
	return &Index{spatial: spatial, times: times}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.spatial.Len() }

// Fwd maps sorted index -> original index (see dbscan.Index.Fwd).
func (ix *Index) Fwd() []int { return ix.spatial.Fwd }

// NeighborSearch appends to dst the sorted-space indices of points within
// Eps1 spatially AND Eps2 temporally of sorted-space point i (including
// itself). The spatial hits are appended to dst and compacted in place by
// the temporal test, so a dst with room allocates nothing.
func (ix *Index) NeighborSearch(i int32, p Params, m *metrics.Counters, dst []int32) []int32 {
	q := geom.Point{X: ix.spatial.X[i], Y: ix.spatial.Y[i]}
	t := ix.times[i]
	start := len(dst)
	dst = ix.spatial.NeighborSearch(q, p.Eps1, m, dst)
	out := dst[:start]
	for _, j := range dst[start:] {
		dt := ix.times[j] - t
		if dt < 0 {
			dt = -dt
		}
		if dt <= p.Eps2 {
			out = append(out, j)
		}
	}
	return out
}

// Run clusters the index under p; labels are in sorted space (use Fwd with
// cluster.Result.Remap for the caller's order). It first sizes the cell
// grid for Eps1, rebuilding it only when its side is smaller. m may be nil.
func Run(ix *Index, p Params, m *metrics.Counters) (*cluster.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ix.spatial.EnsureGrid(p.Eps1); err != nil {
		return nil, err
	}
	n := ix.Len()
	res := cluster.NewResult(n)
	visited := make([]bool, n)
	var cid int32

	queue := make([]int32, 0, 1024)
	var scratch []int32
	absorb := func(neighbors []int32, cid int32) {
		for _, k := range neighbors {
			if !visited[k] {
				visited[k] = true
				queue = append(queue, k)
			}
			if res.Labels[k] <= 0 {
				res.Labels[k] = cid
			}
		}
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		scratch = ix.NeighborSearch(int32(i), p, m, scratch[:0])
		if len(scratch) < p.MinPts {
			res.Labels[i] = cluster.Noise
			continue
		}
		cid++
		res.Labels[i] = cid
		queue = queue[:0]
		absorb(scratch, cid)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			scratch = ix.NeighborSearch(j, p, m, scratch[:0])
			if len(scratch) >= p.MinPts {
				absorb(scratch, cid)
			}
		}
	}
	res.NumClusters = int(cid)
	return res, nil
}

// RunBruteForce is the O(n²) oracle for cross-validation.
func RunBruteForce(pts []Point, p Params, m *metrics.Counters) (*cluster.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(pts)
	e1Sq := p.Eps1 * p.Eps1
	search := func(i int, dst []int32) []int32 {
		for j := 0; j < n; j++ {
			dx := pts[i].X - pts[j].X
			dy := pts[i].Y - pts[j].Y
			dt := pts[i].T - pts[j].T
			if dt < 0 {
				dt = -dt
			}
			if dx*dx+dy*dy <= e1Sq && dt <= p.Eps2 {
				dst = append(dst, int32(j))
			}
		}
		m.AddNeighborSearches(1)
		return dst
	}
	res := cluster.NewResult(n)
	visited := make([]bool, n)
	var cid int32
	queue := make([]int32, 0, 1024)
	var scratch []int32
	absorb := func(neighbors []int32, cid int32) {
		for _, k := range neighbors {
			if !visited[k] {
				visited[k] = true
				queue = append(queue, k)
			}
			if res.Labels[k] <= 0 {
				res.Labels[k] = cid
			}
		}
	}
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		scratch = search(i, scratch[:0])
		if len(scratch) < p.MinPts {
			res.Labels[i] = cluster.Noise
			continue
		}
		cid++
		res.Labels[i] = cid
		queue = queue[:0]
		absorb(scratch, cid)
		for qi := 0; qi < len(queue); qi++ {
			scratch = search(int(queue[qi]), scratch[:0])
			if len(scratch) >= p.MinPts {
				absorb(scratch, cid)
			}
		}
	}
	res.NumClusters = int(cid)
	return res, nil
}
