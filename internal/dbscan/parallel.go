package dbscan

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"vdbscan/internal/cluster"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/unionfind"
)

// This file implements intra-variant parallel DBSCAN: the disjoint-set
// formulation of Patwary et al. (SC 2012) on the index-ordered lock-free
// union-find of Wang, Gu & Shun (SIGMOD 2020), with the neighbourhood
// consumed during the traversal and never stored (Prokopenko et al., "Fast
// tree-based algorithms for DBSCAN on GPUs"). On a grid-kind index the
// traversal is cell-major (cellmajor.go): points in cells dense enough to
// be core by counting are never searched at all. Everywhere else — the
// R-tree kind, an ε too small for the cell budget, the sparse cells of the
// cell-major pass — workers issue exactly one ε-search per point over the
// shared read-only index and act on the result on the spot
// (onePass.consume):
//
//   - A core point i publishes core[i] with a sequentially consistent
//     store and only then scans its neighbours, unioning with every j whose
//     flag it loads as set. Edge coverage: for a core–core ε-edge (i, j)
//     each endpoint stores its own flag before loading the other's, so the
//     two loads cannot both miss (Dekker's argument; Go's sync/atomic
//     operations are sequentially consistent) — the endpoint that publishes
//     later always sees the other and links the edge. No second traversal
//     is needed, and an edge seen from both sides is a harmless duplicate.
//   - Order independence: ConcurrentDSU roots are the minimum member index,
//     so once the last barrier has published every union the components —
//     and labelCores' numbering of them by ascending minimum core index,
//     which is Run's formation order — do not depend on which worker linked
//     which edge, when, or how often.
//   - Border rule: a non-core point has fewer than MinPts neighbours by
//     definition, so its whole neighbour list is appended to the worker's
//     flat record arena (at most MinPts+1 words). After the barrier and
//     labelCores, one sequential sweep over the arenas gives it the minimum
//     label among its core neighbours, or Noise when it has none: Run
//     assigns a border point to the first-formed (lowest-cid) cluster with a
//     core point within ε of it, which is that minimum.
//
// The output is therefore *identical* to sequential Run — not merely
// equivalent up to renumbering. The work counters equal Run's only on the
// point-major pass, which searches every point over Run's candidates; the
// cell-major pass counts the far smaller work it does (see cellmajor.go),
// the same at every worker count and under every division of the work.
//
// This is the single-variant complement to VariantDBSCAN's inter-variant
// parallelism: it reduces one variant's response time when there are fewer
// runnable variants than cores (the |V| < T and end-of-run-tail regimes),
// while the paper's scheduler maximizes throughput over many variants.
// internal/sched composes the two levels by donating idle pool workers to
// running variants through the Helper interface.
//
// A run is also one link of an ε-chain (RunLink): what the pass leaves
// behind — flags, union-find, records — is exactly what a variant with the
// same ε and a smaller MinPts needs in place of the index.

// Helper donates extra worker goroutines to a parallel pass of
// RunParallelOpts (the cell-major runner offers twice, once per pass). Offer
// publishes a help function that idle donor goroutines may invoke
// concurrently; help returns when the pass's work is exhausted. The
// returned stop retracts the offer and blocks until every in-flight donated
// invocation has returned, so the caller may rely on happens-before between
// donated writes and what it does next. variant is the offering variant
// execution's ID (ParallelOptions.Variant), which lets the helper attribute
// donated time in traces; helpers that don't trace may ignore it.
type Helper interface {
	Offer(variant int32, help func()) (stop func())
}

// ParallelOptions configures RunParallelOpts.
type ParallelOptions struct {
	// Workers is the number of goroutines the run drives itself, including
	// the calling one; <= 0 selects GOMAXPROCS.
	Workers int
	// Helper, when non-nil, contributes donated goroutines to the parallel
	// passes on top of Workers (two-level scheduling).
	Helper Helper
	// Rec, when non-nil, records the run's phase spans — mark (tile-run on
	// the tiled path) around the parallel passes, then label and border —
	// for variant Variant into the calling worker's trace ring. The nil
	// default costs nothing: every Recorder method is a nil-receiver no-op
	// and no per-point work is ever traced.
	Rec *obs.Recorder
	// Variant is the variant ID used in trace events and Helper offers.
	Variant int32
	// Tiles selects tile-level parallelism (variant → tile → chunk) on
	// grid-kind indexes: the grid is cut into point-balanced tiles and
	// workers claim the cells of a whole tile instead of fixed-size chunks
	// of cells — same labels, same work counters. 0 is
	// automatic (tile when Workers and the point count justify it), 1
	// forces the untiled chunked division, >= 2 requests that many tiles.
	// Ignored when the run has no cell decomposition: R-tree kind, or an
	// ε too small for the cell budget.
	Tiles int
}

// parallelChunk is the number of contiguous grid-sorted points — or, on the
// cell-major pass, the average number of points in the run of cells — a
// worker claims per cursor increment when the run is untiled. Chunks are
// large enough to amortize the cursor's atomic add and a metrics flush
// across many ε-searches, and small enough to load-balance the skewed
// per-point search costs of clustered data.
const parallelChunk = 256

// RunParallel executes DBSCAN with intra-variant parallelism and returns a
// result identical to sequential Run (same labels, same cluster numbering,
// same noise set). workers <= 0 selects GOMAXPROCS. m may be nil; counters
// are accumulated per worker and flushed once per work unit, so the totals
// are exact without per-search atomic contention.
func RunParallel(ix *Index, p Params, workers int, m *metrics.Counters) (*cluster.Result, error) {
	return RunParallelOpts(context.Background(), ix, p, ParallelOptions{Workers: workers}, m)
}

// RunParallelOpts is RunParallel with cancellation and donated workers. ctx
// is checked once per chunk (per tile on the tiled path) and at the barrier
// between passes; on cancellation the pass drains and the context error is
// returned with no partial result. It is the one-link case of RunLink: the
// run's state is dropped with the return, nothing is cloned or kept.
func RunParallelOpts(ctx context.Context, ix *Index, p Params, opt ParallelOptions, m *metrics.Counters) (*cluster.Result, error) {
	res, _, err := RunLink(ctx, ix, p, nil, opt, m)
	return res, err
}

// Link is what a finished run leaves for the next variant of its ε-chain —
// the same ε, a MinPts no larger: the core flags, the core-connectivity
// union-find and the non-core records. "p has at least MinPts neighbours
// within ε" is monotone in MinPts (the paper's inclusion criterion, read per
// point), so the successor needs no ε-search: a core point stays core, every
// core–core edge is already in the union-find, and a point that was not core
// has its whole neighbourhood in its record, because it holds fewer than the
// predecessor's MinPts entries. A Link is immutable — a successor works on a
// clone — so any number of runs may start from one.
type Link struct {
	p Params
	s *onePass
}

// Serves reports whether a run of p on l's index can replay l instead of
// searching. A nil Link serves nothing.
func (l *Link) Serves(p Params) bool {
	return l != nil && l.p.Eps == p.Eps && l.p.MinPts >= p.MinPts
}

// RunLink is RunParallelOpts for one variant of an ε-chain. When prev, a
// Link of an earlier RunLink on the same ix, serves p, the parallel pass
// replays prev's records through consume under the new threshold instead of
// searching the index — a record long enough is now core and unions with its
// core neighbours, the rest are recorded again — at zero ε-searches, every
// replayed neighbour entry counted as a candidate. Otherwise the run is from
// scratch. Either way labelCores and attachBorders then produce Run's bytes,
// and the returned Link (nil for an empty index) carries the run's state to
// the next variant.
func RunLink(ctx context.Context, ix *Index, p Params, prev *Link, opt ParallelOptions, m *metrics.Counters) (*cluster.Result, *Link, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ix.EnsureGrid(p.Eps); err != nil {
		return nil, nil, err
	}
	n := ix.Len()
	if n == 0 {
		return cluster.NewResult(0), nil, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	s := &onePass{minPts: p.MinPts}
	phase := obs.PhaseMark
	var passes []pass
	if prev.Serves(p) {
		// Element-wise: atomics, and another successor may be reading prev.
		s.core = make([]atomic.Bool, n)
		for i := range s.core {
			s.core[i].Store(prev.s.core[i].Load())
		}
		s.dsu = prev.s.dsu.Clone()
		passes = []pass{s.replay(prev.s.borders)}
	} else {
		s.core, s.dsu = make([]atomic.Bool, n), unionfind.NewConcurrent(n)
		if g := ix.cellDecomposition(p.Eps); g != nil {
			units, spans := tileSpans(ix, g, opt.Tiles, workers)
			if spans == nil {
				units, spans = chunkSpans(g)
			} else {
				phase = obs.PhaseTileRun
			}
			passes = s.cellPasses(ix, g, p.Eps, units, spans)
		} else {
			passes = []pass{s.chunkUnits(ix, p.Eps)}
		}
	}
	opt.Rec.PhaseBegin(opt.Variant, phase)
	for i, ps := range passes {
		if i > 0 && ctx.Err() != nil {
			break // canceled before the barrier
		}
		runPhase(min(workers, ps.units), opt, s.workerBody(ctx, m, ps))
	}
	opt.Rec.PhaseEnd(opt.Variant, phase)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Sequential tail, O(n) with near-flat finds: number the core sets,
	// then resolve the recorded non-core points against the core labels.
	res := cluster.NewResult(n)
	opt.Rec.PhaseBegin(opt.Variant, obs.PhaseLabel)
	res.NumClusters = int(s.labelCores(res.Labels))
	opt.Rec.PhaseEnd(opt.Variant, obs.PhaseLabel)

	opt.Rec.PhaseBegin(opt.Variant, obs.PhaseBorder)
	s.attachBorders(res.Labels)
	opt.Rec.PhaseEnd(opt.Variant, obs.PhaseBorder)
	return res, &Link{p, s}, nil
}

// RunSeqLink is a chain's first link on one goroutine, for an index without
// a cell decomposition: RunCtx's expansion, which searches every point once
// as the point-major pass does but needs no label or border tail, recording
// the Link on the way. Labels and work counters are Run's; the Link serves
// RunLink exactly as a from-scratch RunLink's would. The loop is a copy of
// RunCtx's rather than shared with it: the recording hooks cost plain Run
// about 10 %.
func RunSeqLink(ctx context.Context, ix *Index, p Params, m *metrics.Counters) (*cluster.Result, *Link, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ix.EnsureGrid(p.Eps); err != nil {
		return nil, nil, err
	}
	n := ix.Len()
	res := cluster.NewResult(n)
	if n == 0 {
		return res, nil, nil
	}
	s := &onePass{minPts: p.MinPts, core: make([]atomic.Bool, n), dsu: unionfind.NewConcurrent(n)}
	visited := make([]bool, n)
	queue := make([]int32, 0, 1024)
	scratch := make([]int32, 0, 256)
	var arena []int32
	var cid int32

	// search ε-searches q and keeps what the next link replays: a core q
	// joins seed — its cluster's first core point, so the component's
	// minimum core index — and a non-core q keeps its whole neighbourhood.
	search := func(q, seed int32) (core bool) {
		scratch = ix.NeighborSearch(ix.Pts[q], p.Eps, m, scratch[:0])
		if len(scratch) < p.MinPts {
			arena = append(arena, q, int32(len(scratch)))
			arena = append(arena, scratch...)
			return false
		}
		s.core[q].Store(true)
		s.dsu.Union(q, seed)
		return true
	}
	absorb := func(cid int32) {
		for _, k := range scratch {
			if !visited[k] {
				visited[k] = true
				queue = append(queue, k)
			}
			if res.Labels[k] <= 0 {
				res.Labels[k] = cid
			}
		}
	}
	for i := int32(0); i < int32(n); i++ {
		if i%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		if visited[i] {
			continue
		}
		visited[i] = true
		if !search(i, i) {
			res.Labels[i] = cluster.Noise
			continue
		}
		cid++
		res.Labels[i] = cid
		queue = queue[:0]
		absorb(cid)
		for qi := 0; qi < len(queue); qi++ {
			if search(queue[qi], i) {
				absorb(cid)
			}
		}
	}
	res.NumClusters = int(cid)
	if len(arena) > 0 {
		s.borders = [][]int32{arena}
	}
	return res, &Link{p, s}, nil
}

// onePass is the state the workers of one run share: the published core
// flags, the core-connectivity union-find, and the non-core records each
// worker hands over when it finishes.
type onePass struct {
	minPts int
	core   []atomic.Bool
	dsu    *unionfind.ConcurrentDSU

	mu      sync.Mutex
	borders [][]int32 // per worker: [b, k, n1..nk] records back to back
}

// consume acts on point i's ε-neighbourhood while it is still in the
// search buffer, and returns the worker's record arena. The store of
// core[i] must precede the loads of core[j]: that order is what guarantees
// every core–core edge is linked from at least one side (see the file
// header). ri may go stale as concurrent unions re-root i's set, but sets
// only grow, so Find(j) == ri still proves i and j are joined — a stale ri
// costs a redundant Union at worst, never a missed one.
func (s *onePass) consume(i int32, nbrs, arena []int32) []int32 {
	if len(nbrs) < s.minPts {
		arena = append(arena, i, int32(len(nbrs)))
		return append(arena, nbrs...)
	}
	s.core[i].Store(true)
	ri := s.dsu.Find(i)
	for _, j := range nbrs {
		if s.core[j].Load() && s.dsu.Find(j) != ri {
			s.dsu.Union(i, j)
			ri = s.dsu.Find(i)
		}
	}
	return arena
}

// passWorker is one body invocation's private state: the ε-search buffer,
// the non-core record arena, and the counter batch.
type passWorker struct {
	scratch, arena []int32
	local          metrics.Local
}

// pass is one barrier-delimited parallel pass: units work units (point
// chunks, cell chunks or tiles), each handled whole by one worker.
type pass struct {
	units int
	unit  func(u int, w *passWorker)
}

// workerBody returns the body runPhase drives: claim the pass's next work
// unit from a shared cursor, let unit handle it, flush the counters. ctx is
// checked and counters are flushed once per unit, so a canceled run has
// counted exactly the work it performed. A finished worker hands its arena
// to the sequential tail.
func (s *onePass) workerBody(ctx context.Context, m *metrics.Counters, ps pass) func() {
	var cursor atomic.Int64
	return func() {
		w := passWorker{scratch: make([]int32, 0, 256)}
		for ctx.Err() == nil {
			u := int(cursor.Add(1) - 1)
			if u >= ps.units {
				break
			}
			ps.unit(u, &w)
			w.local.FlushTo(m)
		}
		if len(w.arena) > 0 {
			s.mu.Lock()
			s.borders = append(s.borders, w.arena)
			s.mu.Unlock()
		}
	}
}

// chunkUnits is the point-major pass, the only one that can serve an index
// without a cell decomposition: parallelChunk-sized ranges of the point
// array, each point ε-searched through the index's own search ladder.
func (s *onePass) chunkUnits(ix *Index, eps float64) pass {
	n := len(s.core)
	return pass{(n + parallelChunk - 1) / parallelChunk, func(u int, w *passWorker) {
		lo := u * parallelChunk
		hi := min(lo+parallelChunk, n)
		for i := lo; i < hi; i++ {
			w.scratch = ix.NeighborSearchLocal(ix.Pts[i], eps, &w.local, w.scratch[:0])
			w.arena = s.consume(int32(i), w.scratch, w.arena)
		}
	}}
}

// replay is the one pass of a chain link after the first: each unit is one
// arena of the predecessor's records, fed back through consume. The arenas'
// number and sizes follow the predecessor's schedule; their union, and so
// everything this pass computes and counts, does not.
func (s *onePass) replay(arenas [][]int32) pass {
	return pass{len(arenas), func(u int, w *passWorker) {
		for arena := arenas[u]; len(arena) > 0; {
			b, k := arena[0], int(arena[1])
			w.local.CandidatesExamined += int64(k)
			w.arena = s.consume(b, arena[2:2+k], w.arena)
			arena = arena[2+k:]
		}
	}}
}

// labelCores numbers the core DSU components by ascending minimum core
// index — precisely Run's formation order — writes the core labels, and
// returns the cluster count. Because ConcurrentDSU roots are the minimum
// member index, the first time a component is seen is at its minimum core
// point, exactly when Run would have formed it.
func (s *onePass) labelCores(labels []int32) int32 {
	rootID := make([]int32, len(labels))
	var cid int32
	for i := range labels {
		if !s.core[i].Load() {
			continue
		}
		r := s.dsu.Find(int32(i))
		if rootID[r] == 0 {
			cid++
			rootID[r] = cid
		}
		labels[i] = rootID[r]
	}
	return cid
}

// attachBorders resolves every non-core point from its recorded
// neighbourhood: the lowest cluster id among its core neighbours — Run's
// first absorber — or Noise when none of them is core.
func (s *onePass) attachBorders(labels []int32) {
	for _, arena := range s.borders {
		for len(arena) > 0 {
			b, k := arena[0], int(arena[1])
			label := cluster.Noise
			for _, j := range arena[2 : 2+k] {
				if s.core[j].Load() && (label == cluster.Noise || labels[j] < label) {
					label = labels[j]
				}
			}
			labels[b] = label
			arena = arena[2+k:]
		}
	}
}

// runPhase drives body on workers goroutines (the caller's included) plus
// any donated helpers, returning once every invocation has finished. body
// must be safe for concurrent invocation and return when the pass's work
// is exhausted.
func runPhase(workers int, opt ParallelOptions, body func()) {
	var stop func()
	if opt.Helper != nil {
		stop = opt.Helper.Offer(opt.Variant, body)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body()
	wg.Wait()
	if stop != nil {
		stop()
	}
}
