// Package dbscan implements DBSCAN (Ester et al., KDD 1996) — Algorithms 1
// and 2 of the paper — over one shared, immutable index, the property
// variant-based parallelism rests on.
//
// The central object is Index: one spatially sorted copy of the point
// database in struct-of-arrays form, plus the search structures its kind
// calls for. A grid-kind index (the default) searches a flat uniform cell
// grid, built by EnsureGrid for the variant set's largest ε, and its
// from-scratch runs go cell-major (cellmajor.go). An R-tree-kind index is
// the paper's: two frozen packed R-trees,
//
//	T_low  — r points per leaf MBB (r ≈ 70–110), used for ε-searches;
//	T_high — one point per leaf MBB, used for exact cluster-MBB sweeps
//	         in VariantDBSCAN (internal/paper).
//
// T_low is built with an R-tree-kind index; a grid-kind index builds it
// only if something searches before EnsureGrid. T_high is built on the
// first cluster-MBB sweep on either kind. Each is built once, race-free.
//
// An Index is only read after construction, so any number of variant
// executions may search it concurrently without locking. A grown point set
// gets a new Index; streaming insertion and deletion are
// internal/incremental's job.
package dbscan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"vdbscan/internal/cluster"
	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
	"vdbscan/internal/gridindex"
	"vdbscan/internal/metrics"
	"vdbscan/internal/rtree"
	"vdbscan/internal/tiling"
)

// IndexKind selects the ε-search substrate an Index routes through.
type IndexKind int

const (
	// IndexGrid (the default) routes ε-searches through a flat uniform
	// cell grid (gridindex.Flat) sized for the variant set's largest ε:
	// every ε-search is three contiguous block-kernel scans, and a
	// from-scratch run is cell-major. No R-tree is built unless something
	// asks for one: T_low for a search before EnsureGrid, T_high for a
	// cluster-MBB sweep of the paper reproduction (internal/paper).
	IndexGrid IndexKind = iota
	// IndexRTree is the paper's packed R-tree pair: T_low, built with the
	// index, serves ε-searches; T_high serves cluster-MBB sweeps.
	IndexRTree
)

// String implements fmt.Stringer ("grid" / "rtree").
func (k IndexKind) String() string {
	switch k {
	case IndexRTree:
		return "rtree"
	default:
		return "grid"
	}
}

// DefaultR is the T_low leaf occupancy used when the caller does not choose
// one. The paper finds 70 ≤ r ≤ 110 consistently good (§V-C); 70 matches the
// setting used for scenarios S2 and S3.
const DefaultR = 70

// DefaultBinWidth is the width of the pre-index sorting bins (§IV-A uses
// unit width for degree-scaled TEC data).
const DefaultBinWidth = 1.0

// Index is the shared, immutable spatial index for one point database.
type Index struct {
	// Pts is the grid-sorted point array; all clustering runs in this
	// index space.
	Pts []geom.Point
	// X and Y are struct-of-arrays copies of Pts, shared by the flat
	// trees and the cell grids so the ε distance filter scans contiguous
	// float64 slices.
	X, Y []float64
	// Fwd maps sorted index -> original index (Fwd[sorted] = original).
	Fwd []int

	// Kind selects the ε-search substrate. IndexGrid routes searches
	// through the cell grid below once EnsureGrid has built it; until
	// then searches go through T_low, which returns the same bytes.
	Kind IndexKind

	// r and fanout shape the R-trees: T_low's leaf occupancy, and the
	// node fanout of both (rtree.DefaultFanout when zero).
	r, fanout int
	// low is T_low and high is T_high, frozen array-backed rtree.Flat
	// trees over Pts sharing X and Y, each built on first use (Low, High).
	low, high lazyTree

	// grid is the frozen cell grid serving ε-searches when Kind is
	// IndexGrid. It is built lazily by EnsureGrid — the variant set's max
	// ε is not known at BuildIndex time — and installed atomically so
	// concurrent searches either see a complete grid or use T_low. A
	// grid always covers every point of the index.
	grid   atomic.Pointer[gridindex.Flat]
	gridMu sync.Mutex // serializes EnsureGrid builds

	// cells keeps the ε/√2 cell decompositions the cell-major runner
	// walks, keyed by the side requested: one entry per ε of the latest
	// KeepCells call, each built by the first run that asks for it. A
	// kept decomposition is 20 B per point, 4 B per cell and 8 B per run of
	// occupied cells.
	cells   map[float64]*cellEntry
	cellsMu sync.Mutex // guards the map, not the builds

	// tiles caches the tile partition for the tiled parallel runner. It
	// is keyed by (grid snapshot pointer, tile target), so an EnsureGrid
	// re-side — which installs a fresh *gridindex.Flat — invalidates it
	// automatically: stale tile boundaries can never outlive the grid
	// they were cut from.
	tiles   atomic.Pointer[tilePart]
	tilesMu sync.Mutex // serializes TilePartition builds
}

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	// R is the T_low leaf occupancy; DefaultR when zero.
	R int
	// BinWidth is the grid sorting bin width; DefaultBinWidth when zero.
	BinWidth float64
	// Fanout overrides the R-tree node fanout; rtree.DefaultFanout when zero.
	Fanout int
	// Kind selects the ε-search substrate (IndexGrid when zero).
	Kind IndexKind
}

func (o IndexOptions) withDefaults() IndexOptions {
	if o.R <= 0 {
		o.R = DefaultR
	}
	if o.BinWidth <= 0 {
		o.BinWidth = DefaultBinWidth
	}
	return o
}

// BuildIndex grid-sorts pts into the index's own copy and its SoA
// coordinate slices, which grid.Sort writes in the same pass, on
// GOMAXPROCS workers; the permutation is the same at any width. An
// R-tree-kind index also builds T_low; a grid-kind one builds nothing
// more until EnsureGrid. The input slice is not modified.
func BuildIndex(pts []geom.Point, opt IndexOptions) *Index {
	opt = opt.withDefaults()
	sorted, fwd, x, y := grid.Sort(pts, opt.BinWidth)
	ix := &Index{Pts: sorted, X: x, Y: y, Fwd: fwd, Kind: opt.Kind, r: opt.R, fanout: opt.Fanout}
	if ix.Kind == IndexRTree {
		ix.Low()
	}
	return ix
}

// lazyTree is a frozen R-tree built on first use, once, however many
// goroutines ask for it at the same time.
type lazyTree struct {
	once sync.Once
	t    *rtree.Flat
}

func (l *lazyTree) get(build func() *rtree.Flat) *rtree.Flat {
	l.once.Do(func() { l.t = build() })
	return l.t
}

// Low returns T_low, r points per leaf MBB, building it on first use.
func (ix *Index) Low() *rtree.Flat {
	return ix.low.get(func() *rtree.Flat { return ix.buildTree(ix.r) })
}

// High returns T_high, one point per leaf MBB, building it on first use.
func (ix *Index) High() *rtree.Flat {
	return ix.high.get(func() *rtree.Flat { return ix.buildTree(1) })
}

// buildTree bulk-loads an R-tree over Pts and the shared X and Y.
func (ix *Index) buildTree(r int) *rtree.Flat {
	return rtree.BulkLoad(ix.Pts, ix.X, ix.Y, rtree.Options{R: r, Fanout: ix.fanout})
}

// Grid exposes the installed cell grid (nil until EnsureGrid has run on
// an IndexGrid index). Read-only.
func (ix *Index) Grid() *gridindex.Flat { return ix.grid.Load() }

// EnsureGrid builds (or rebuilds) the cell grid serving ε-searches when
// Kind is IndexGrid; for other kinds it is a no-op. maxEps should be the
// largest ε the caller is about to run — the variant set's max — so one
// build serves every variant: the grid's cell side is at least maxEps,
// and smaller-ε searches just filter more candidates per cell. Larger-ε
// searches also stay exact (the scanned block widens), so an existing
// grid is only rebuilt when its side is smaller than maxEps. Safe for
// concurrent callers; searches racing a rebuild use whichever complete
// grid they observe.
func (ix *Index) EnsureGrid(maxEps float64) error {
	if ix.Kind != IndexGrid || !(maxEps > 0) {
		return nil
	}
	if g := ix.grid.Load(); g != nil && g.Side() >= maxEps {
		return nil
	}
	ix.gridMu.Lock()
	defer ix.gridMu.Unlock()
	if g := ix.grid.Load(); g != nil && g.Side() >= maxEps {
		return nil
	}
	g, err := gridindex.Freeze(ix.X, ix.Y, maxEps)
	if err != nil {
		return err
	}
	ix.grid.Store(g)
	return nil
}

// cellGrid is one cell decomposition together with the runs of its
// occupied cells (occupiedRuns), which every pass of the cell-major runner
// walks instead of all cols·rows cells.
type cellGrid struct {
	*gridindex.Flat
	runStart, runEnd []int32
}

// cellMargin shrinks the requested cell side below ε/√2 so that float
// rounding cannot put two points of one cell more than ε apart: a point's
// cell is a rounded quotient, which lets a cell's points spread over
// side·(1 + 2⁻³⁰) per axis at gridindex.MaxCells columns — under half the
// margin.
const cellMargin = 1 - 1e-9

// cellSide is the side of eps's cell decomposition.
func cellSide(eps float64) float64 { return eps / math.Sqrt2 * cellMargin }

// cellEntry is one kept decomposition, built once by the first run that
// asks for it; c stays nil when the build failed.
type cellEntry struct {
	once sync.Once
	c    *cellGrid
}

// KeepCells declares the ε values whose cell decompositions the index
// keeps: it drops every other, and keeps those already built for these.
// A sweep declares its variant set's ε values and a single run its own, so
// repeating a call rebuilds nothing and the memory kept is bounded by the
// latest call's ε set. A run in flight keeps the decomposition it holds.
func (ix *Index) KeepCells(eps ...float64) {
	ix.cellsMu.Lock()
	defer ix.cellsMu.Unlock()
	kept := make(map[float64]*cellEntry, len(eps))
	for _, e := range eps {
		side := cellSide(e)
		kept[side] = cmp.Or(ix.cells[side], new(cellEntry))
	}
	ix.cells = kept
}

// cellDecomposition returns the grid the cell-major runner walks for eps:
// every point bucketed into cells of side just under eps/√2, so that any
// two points of one cell are within eps of each other, with the runs of its
// occupied cells. A kept ε's grid is built on its first request; any other
// is built for the caller alone. It returns nil when only the per-point
// search path can serve the run: the index has no cell grid (R-tree kind),
// or the build had to coarsen the side to respect gridindex.MaxCells — a
// tiny eps over a wide extent — and the cells are too large for that
// guarantee.
func (ix *Index) cellDecomposition(eps float64) *cellGrid {
	if ix.grid.Load() == nil {
		return nil
	}
	side := cellSide(eps)
	ix.cellsMu.Lock()
	e := ix.cells[side]
	ix.cellsMu.Unlock()
	if e == nil {
		e = new(cellEntry)
	}
	e.once.Do(func() {
		if g, err := gridindex.Freeze(ix.X, ix.Y, side); err == nil {
			e.c = &cellGrid{Flat: g}
			e.c.runStart, e.c.runEnd = occupiedRuns(g)
		}
	})
	if e.c == nil || e.c.Side()*math.Sqrt2 > eps {
		return nil
	}
	return e.c
}

// tilePart is one cached tile partition together with the key it was
// built under.
type tilePart struct {
	grid   *gridindex.Flat
	target int
	part   *tiling.Partition // nil when tiling was not applicable
}

// TilePartition returns the tile partition of the current grid snapshot
// for the given tile-count target, building and caching it on first use.
// The cache is keyed by the snapshot pointer, so a grid rebuild (an
// EnsureGrid re-side for a larger ε) makes the next call cut fresh tiles.
// Returns nil when there is no grid or the grid/target cannot yield at
// least two tiles; safe for concurrent callers.
func (ix *Index) TilePartition(target int) *tiling.Partition {
	g := ix.grid.Load()
	if g == nil {
		return nil
	}
	if tp := ix.tiles.Load(); tp != nil && tp.grid == g && tp.target == target {
		return tp.part
	}
	ix.tilesMu.Lock()
	defer ix.tilesMu.Unlock()
	if tp := ix.tiles.Load(); tp != nil && tp.grid == g && tp.target == target {
		return tp.part
	}
	p := tiling.Build(g, target)
	ix.tiles.Store(&tilePart{grid: g, target: target, part: p})
	return p
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.Pts) }

// R returns the leaf occupancy T_low has, or would have once built.
func (ix *Index) R() int { return ix.r }

// NeighborSearch is Algorithm 2: it builds the ε-augmented query MBB around
// p, collects candidate points from T_low's overlapping leaf MBBs — or the
// cell grid's block around p, once a grid-kind index has built one — and
// distance-filters them. Results are appended to dst (which may be nil) as
// sorted-space point indices, including the query point itself when it is in
// the database. m may be nil.
func (ix *Index) NeighborSearch(p geom.Point, eps float64, m *metrics.Counters, dst []int32) []int32 {
	dst, candidates, nodes := ix.neighborSearch(p, eps, dst)
	m.AddNeighborSearches(1)
	m.AddCandidatesExamined(candidates)
	m.AddNodesVisited(nodes)
	m.AddNeighborsFound(int64(len(dst)))
	return dst
}

// NeighborSearchLocal is NeighborSearch accumulating into a per-worker
// metrics.Local instead of shared atomic Counters. Parallel executions call
// it on their hot path and flush the local once per work chunk, avoiding a
// contended atomic read-modify-write per ε-search. l may be nil.
func (ix *Index) NeighborSearchLocal(p geom.Point, eps float64, l *metrics.Local, dst []int32) []int32 {
	dst, candidates, nodes := ix.neighborSearch(p, eps, dst)
	if l != nil {
		l.NeighborSearches++
		l.CandidatesExamined += candidates
		l.NodesVisited += nodes
		l.NeighborsFound += int64(len(dst))
	}
	return dst
}

// neighborSearch is the uninstrumented Algorithm 2 body shared by the two
// counter flavors: the cell grid when a grid-kind index has built one,
// T_low otherwise. Both return the same neighbours in the same order and
// are allocation-free in steady state (the R-tree traversal stack is a
// fixed local array inside rtree.Flat, dst amortizes across calls).
func (ix *Index) neighborSearch(p geom.Point, eps float64, dst []int32) (out []int32, candidates, nodes int64) {
	var c, n int
	if g := ix.grid.Load(); g != nil {
		out, c, n = g.EpsSearch(p, eps, dst)
	} else {
		out, c, n = ix.Low().EpsSearch(p, eps, dst)
	}
	return out, int64(c), int64(n)
}

// HighCandidates appends to dst the indices of all points in T_high leaf
// entries overlapping q and returns dst plus the nodes touched — the
// cluster-MBB sweep of VariantDBSCAN (Algorithm 3, line 11). The first call
// builds T_high.
func (ix *Index) HighCandidates(q geom.MBB, dst []int32) (out []int32, nodes int64) {
	out, n := ix.High().SearchCandidates(q, dst)
	return out, int64(n)
}

// Params are the two DBSCAN inputs that define a variant.
type Params struct {
	Eps    float64
	MinPts int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
		return fmt.Errorf("dbscan: eps must be finite and > 0, got %g", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: minpts must be >= 1, got %d", p.MinPts)
	}
	return nil
}

// String implements fmt.Stringer in the paper's (ε, minpts) notation.
func (p Params) String() string {
	return fmt.Sprintf("(%g, %d)", p.Eps, p.MinPts)
}

// Run executes Algorithm 1 over the index and returns labels in sorted index
// space (use Index.Fwd / Result.Remap to translate). m may be nil.
//
// The expansion follows the pseudocode's seed-set semantics: a core point's
// neighbors join the cluster; neighbors that are themselves core points
// extend the frontier; non-core neighbors become border points. A point
// previously marked noise can be relabeled as a border point, matching the
// original DBSCAN definition.
func Run(ix *Index, p Params, m *metrics.Counters) (*cluster.Result, error) {
	return RunCtx(context.Background(), ix, p, m)
}

// cancelCheckInterval is how many outer-loop points RunCtx and RunParallel
// process between context checks. Coarse on purpose: a ctx.Err() call per
// point would be measurable on the ε-search hot path, one per kilopoint is
// not, and a single point's expansion is already bounded work.
const cancelCheckInterval = 1024

// RunCtx is Run with cancellation: ctx is checked every
// cancelCheckInterval points of the outer loop, and the context error is
// returned (with no partial result) once observed.
func RunCtx(ctx context.Context, ix *Index, p Params, m *metrics.Counters) (*cluster.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ix.EnsureGrid(p.Eps); err != nil {
		return nil, err
	}
	n := ix.Len()
	res := cluster.NewResult(n)
	visited := make([]bool, n)
	var cid int32

	// Reusable buffers: the frontier queue and the per-search scratch.
	// Points enter the queue at most once (marked visited at discovery),
	// so the queue is bounded by the cluster size rather than by the sum
	// of all neighborhood sizes.
	queue := make([]int32, 0, 1024)
	scratch := make([]int32, 0, 256)

	// absorb labels every neighbor of a core point and enqueues the
	// not-yet-visited ones for their own ε-search.
	absorb := func(neighbors []int32, cid int32) {
		for _, k := range neighbors {
			if !visited[k] {
				visited[k] = true
				queue = append(queue, k)
			}
			if res.Labels[k] <= 0 { // unclassified or noise -> join cluster
				res.Labels[k] = cid
			}
		}
	}

	for i := 0; i < n; i++ {
		if i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if visited[i] {
			continue
		}
		visited[i] = true
		scratch = ix.NeighborSearch(ix.Pts[i], p.Eps, m, scratch[:0])
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
			scratch = ix.NeighborSearch(ix.Pts[j], p.Eps, m, scratch[:0])
			if len(scratch) >= p.MinPts {
				absorb(scratch, cid)
			}
		}
	}
	res.NumClusters = int(cid)
	return res, nil
}

// RunBruteForce is the O(|D|²) reference without any index: the
// "brute-force approach" the paper contrasts in §II-B. It exists to
// cross-validate the indexed implementation and for the ablation benchmarks.
func RunBruteForce(pts []geom.Point, p Params, m *metrics.Counters) (*cluster.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(pts)
	res := cluster.NewResult(n)
	visited := make([]bool, n)
	epsSq := p.Eps * p.Eps

	search := func(q geom.Point, dst []int32) []int32 {
		for i := 0; i < n; i++ {
			if q.DistSq(pts[i]) <= epsSq {
				dst = append(dst, int32(i))
			}
		}
		m.AddNeighborSearches(1)
		m.AddCandidatesExamined(int64(n))
		m.AddNeighborsFound(int64(len(dst)))
		return dst
	}

	var cid int32
	queue := make([]int32, 0, 1024)
	scratch := make([]int32, 0, 256)
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
		scratch = search(pts[i], scratch[:0])
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
			scratch = search(pts[j], scratch[:0])
			if len(scratch) >= p.MinPts {
				absorb(scratch, cid)
			}
		}
	}
	res.NumClusters = int(cid)
	return res, nil
}

// CorePoints returns, in sorted index space, whether each point is a core
// point under p. Exposed for tests and the OPTICS cross-checks.
func CorePoints(ix *Index, p Params, m *metrics.Counters) []bool {
	_ = ix.EnsureGrid(p.Eps) // a failed build just leaves the search on T_low
	n := ix.Len()
	core := make([]bool, n)
	scratch := make([]int32, 0, 256)
	for i := 0; i < n; i++ {
		scratch = ix.NeighborSearch(ix.Pts[i], p.Eps, m, scratch[:0])
		core[i] = len(scratch) >= p.MinPts
	}
	return core
}
