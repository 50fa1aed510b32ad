package dbscan

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vdbscan/internal/cluster"
	"vdbscan/internal/forkjoin"
	"vdbscan/internal/metrics"
	"vdbscan/internal/obs"
	"vdbscan/internal/unionfind"
)

// This file implements intra-variant parallel DBSCAN: the disjoint-set
// formulation of Patwary et al. (SC 2012) on the index-ordered lock-free
// union-find of Wang, Gu & Shun (SIGMOD 2020), with the neighbourhood
// consumed during the traversal and never stored (Prokopenko et al., "Fast
// tree-based algorithms for DBSCAN on GPUs"). On a grid-kind index the
// traversal is cell-major (cellmajor.go): a point of a cell dense enough
// to be core by counting is never searched, every other point counts its
// neighbours only to MinPts, and the cores are linked by cell-pair tests,
// not by one union per neighbour: first the pairs of neighbouring cells,
// then, after a barrier, only those pairs two cells apart whose sets the
// first tests left apart. Everywhere else — the R-tree kind, an ε too
// small for the cell budget — workers issue exactly one ε-search per point
// over the shared read-only index and act on the result on the spot
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
//     which edge, when, or how often. Every non-root's parent is smaller
//     than it, so labelCores reads that numbering off one ascending pass
//     over the parents, without a Find.
//   - Border rule: a non-core point has fewer than MinPts neighbours by
//     definition, so its whole neighbour list is appended to the worker's
//     flat record arena (at most MinPts+1 words). After the barrier and
//     labelCores, one sweep over the arenas gives it the minimum label
//     among its core neighbours, or Noise when it has none: Run assigns a
//     border point to the first-formed (lowest-cid) cluster with a core
//     point within ε of it, which is that minimum.
//
// The output is therefore *identical* to sequential Run — not merely
// equivalent up to renumbering. The work counters equal Run's only on the
// point-major pass, which searches every point over Run's candidates; the
// cell-major pass counts the far smaller work it does (see cellmajor.go):
// one search per point outside a dense cell, the candidates each scanned,
// and one node per cell pair tested with its tests as candidates — the
// same at every worker count and under every division of the work, since
// which pairs two cells apart are tested is read off a snapshot of the
// union-find taken at a barrier, where it holds the input's components.
//
// This is the single-variant complement to VariantDBSCAN's inter-variant
// parallelism: it reduces one variant's response time when there are fewer
// runnable variants than cores (the |V| < T and end-of-run-tail regimes),
// while the paper's scheduler maximizes throughput over many variants.
// internal/sched runs every link at the full width, so the Go scheduler,
// not this package, decides which core serves which variant.
//
// A run is also one link of an ε-chain (RunLink): what the pass leaves
// behind — flags, union-find, records — is exactly what a variant with the
// same ε and a smaller MinPts needs in place of the index, and a chain
// moves that one state down its MinPts (Link.Advance). Across ε a run
// shares only its core set (Publish), which seeds a cell-major run at a
// larger ε and a MinPts no larger (Seed); the point-major pass ignores a
// seed, since its cores search anyway to union with their neighbours.

// ParallelOptions configures RunParallelOpts.
type ParallelOptions struct {
	// Workers is the number of goroutines the run drives itself, including
	// the calling one; <= 0 selects GOMAXPROCS.
	Workers int
	// Rec, when non-nil, records the run's phase spans — mark (tile-run on
	// the tiled path) around the parallel passes, then label and border —
	// for variant Variant into the calling worker's trace ring. The nil
	// default costs nothing: every Recorder method is a nil-receiver no-op
	// and no per-point work is ever traced.
	Rec *obs.Recorder
	// Variant is the variant ID used in trace events.
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
	// Seed, when non-nil, is called by a cell-major run from scratch just
	// before its mark pass. It returns points core at the run's parameters
	// (those of a run it may reuse, at a smaller ε), or nil; a seeded point
	// of a counted cell is core without an ε-search. Rec records the call
	// as a seed-wait phase. Other runs ignore it.
	Seed func() CoreSet
	// Publish, when non-nil, receives the run's core set at the barrier
	// after its first pass, where the flags are final, unless the run was
	// canceled by then.
	Publish func(CoreSet)
}

// CoreSet is a set of points, one bit each: point i is in it when bit
// i%64 of word i/64 is set.
type CoreSet []uint64

// Has reports whether point i is in c.
func (c CoreSet) Has(i int32) bool { return c[i>>6]>>(i&63)&1 != 0 }

// width is the number of workers a run drives: Workers, or GOMAXPROCS.
func (o ParallelOptions) width() int { return cmp.Or(max(o.Workers, 0), runtime.GOMAXPROCS(0)) }

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

// RunParallelOpts is RunParallel with cancellation and tracing. ctx
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
// union-find and the chain head's non-core records, which every later link
// shares read-only. "p has at least MinPts neighbours within ε" is monotone
// in MinPts (the paper's inclusion criterion, read per point), so the
// successor needs no ε-search: a core point stays core, every core–core
// edge is in the union-find, and a point the head left non-core has all of
// its fewer than MinPts neighbours in its record. RunLink leaves prev as it
// was, so any number of runs may start from one Link; Advance moves on a
// Link that nothing else reads.
type Link struct {
	p Params
	s *onePass // nil once a canceled Advance left it half-advanced
}

// Serves reports whether a run of p on l's index can replay l instead of
// searching. A nil Link serves nothing.
func (l *Link) Serves(p Params) bool {
	return l != nil && l.s != nil && l.p.Eps == p.Eps && l.p.MinPts >= p.MinPts
}

// Params returns the parameters of the run that left l.
func (l *Link) Params() Params { return l.p }

// Bytes is the memory l holds: 8 B per point — a 4-byte core flag and a
// 4-byte union-find parent — plus 4 B per word of its non-core records.
func (l *Link) Bytes() int64 {
	b := 4*int64(len(l.s.core)) + 4*int64(l.s.dsu.Len())
	for _, arena := range l.s.borders {
		b += 4 * int64(len(arena))
	}
	return b
}

// RunLink is RunParallelOpts for one variant of an ε-chain. When prev, a
// Link of an earlier RunLink on the same ix, serves p, the run is Advance
// on a clone of prev's flags and union-find, sharing its records.
// Otherwise the run is from scratch. Either way labelCores and
// attachBorders then produce Run's bytes, and the returned Link (nil for an
// empty index) carries the run's state to the next variant.
func RunLink(ctx context.Context, ix *Index, p Params, prev *Link, opt ParallelOptions, m *metrics.Counters) (*cluster.Result, *Link, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if prev.Serves(p) {
		next := &Link{prev.p, &onePass{core: slices.Clone(prev.s.core), dsu: prev.s.dsu.Clone(), borders: slices.Clip(prev.s.borders)}}
		res, err := next.Advance(ctx, p, opt, m)
		if err != nil {
			return nil, nil, err
		}
		return res, next, nil
	}
	if err := ix.EnsureGrid(p.Eps); err != nil {
		return nil, nil, err
	}
	n := ix.Len()
	if n == 0 {
		return cluster.NewResult(0), nil, nil
	}
	s := &onePass{minPts: p.MinPts, core: make([]uint32, n), dsu: unionfind.NewConcurrent(n)}
	phase := obs.PhaseMark
	var passes []pass
	if g := ix.cellDecomposition(p.Eps); g != nil {
		units, spans := tileSpans(ix, g, opt.Tiles, opt.width())
		if spans == nil {
			units, spans = chunkSpans(g)
		} else {
			phase = obs.PhaseTileRun
		}
		var seed CoreSet
		if opt.Seed != nil {
			opt.Rec.PhaseBegin(opt.Variant, obs.PhaseSeedWait)
			seed = opt.Seed()
			opt.Rec.PhaseEnd(opt.Variant, obs.PhaseSeedWait)
		}
		passes = s.cellPasses(g, p.Eps, seed, units, spans)
	} else {
		passes = []pass{s.chunkUnits(ix, p.Eps)}
	}
	res, err := s.run(ctx, passes, phase, opt, m)
	if err != nil {
		return nil, nil, err
	}
	return res, &Link{p, s}, nil
}

// Advance runs p, which l must serve, as a replay of l in place, and l
// becomes the run's Link: at zero ε-searches, nothing cloned or recorded,
// only the points that turn core at p.MinPts (replay) go through consume.
// A Link that another run may read goes through RunLink instead. A
// canceled Advance leaves l serving nothing.
func (l *Link) Advance(ctx context.Context, p Params, opt ParallelOptions, m *metrics.Counters) (*cluster.Result, error) {
	if err := p.Validate(); err != nil || !l.Serves(p) {
		return nil, fmt.Errorf("dbscan: the link cannot serve %v", p)
	}
	prev := l.p.MinPts
	l.p, l.s.minPts = p, p.MinPts
	res, err := l.s.run(ctx, []pass{l.s.replay(prev)}, obs.PhaseMark, opt, m)
	if err != nil {
		l.s = nil
	}
	return res, err
}

// run is the body of every run: the passes at opt's width, then two O(n)
// passes on the calling goroutine that number the core sets and resolve
// the non-core records.
func (s *onePass) run(ctx context.Context, passes []pass, phase obs.Phase, opt ParallelOptions, m *metrics.Counters) (*cluster.Result, error) {
	opt.Rec.PhaseBegin(opt.Variant, phase)
	for i, ps := range passes {
		if i > 0 && ctx.Err() != nil {
			break // canceled before the barrier
		}
		// max(1, …): replaying a head with no non-core records is a pass
		// of zero units, and Do needs one worker.
		forkjoin.Do(max(1, min(opt.width(), ps.units)), s.workerBody(ctx, m, ps))
		if i == 0 && opt.Publish != nil && ctx.Err() == nil {
			opt.Publish(s.coreSet())
		}
	}
	opt.Rec.PhaseEnd(opt.Variant, phase)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := cluster.NewResult(len(s.core))
	opt.Rec.PhaseBegin(opt.Variant, obs.PhaseLabel)
	res.NumClusters = int(s.labelCores(res.Labels))
	opt.Rec.PhaseEnd(opt.Variant, obs.PhaseLabel)

	opt.Rec.PhaseBegin(opt.Variant, obs.PhaseBorder)
	s.attachBorders(res.Labels)
	opt.Rec.PhaseEnd(opt.Variant, obs.PhaseBorder)
	return res, nil
}

// onePass is the state the workers of one run share: the published core
// flags, the core-connectivity union-find, and the non-core records each
// worker of the chain's head hands over when it finishes.
type onePass struct {
	minPts int
	// core[i] is 1 once point i is known core. It is read and written
	// through sync/atomic, but for markCells' plain stores and the near and
	// far passes' plain loads of them: the mark pass runs before anything
	// reads a flag, each point is one worker's, and no later pass of the
	// cell-major run stores one.
	core []uint32
	dsu  *unionfind.ConcurrentDSU

	mu      sync.Mutex
	borders [][]int32 // per worker: [b, k, n1..nk] records back to back
}

// coreSet returns the points whose core flag is set.
func (s *onePass) coreSet() CoreSet {
	c := make(CoreSet, (len(s.core)+63)/64)
	for i, f := range s.core {
		if f != 0 {
			c[i>>6] |= 1 << (i & 63)
		}
	}
	return c
}

// isCore loads point i's core flag.
func (s *onePass) isCore(i int32) bool { return atomic.LoadUint32(&s.core[i]) != 0 }

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
	atomic.StoreUint32(&s.core[i], 1)
	ri := s.dsu.Find(i)
	for _, j := range nbrs {
		if s.isCore(j) && s.dsu.Find(j) != ri {
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

// workerBody returns the body each worker of a pass runs: claim the pass's
// next work unit from a shared cursor, let unit handle it, flush the
// counters. ctx is checked and counters are flushed once per unit, so a
// canceled run has counted exactly the work it performed. A finished worker
// hands its arena to attachBorders.
func (s *onePass) workerBody(ctx context.Context, m *metrics.Counters, ps pass) func(int) {
	var cursor atomic.Int64
	return func(int) {
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

// replay is Advance's pass from a Link at MinPts prev: each unit is one
// arena of the head's records, and only a record of k entries with
// s.minPts <= k < prev, a point that turns core now, goes through consume;
// it counts its k entries as candidates. The arenas follow the head's
// schedule; their union, and so all this pass computes and counts, does not.
func (s *onePass) replay(prev int) pass {
	return pass{len(s.borders), func(u int, w *passWorker) {
		for arena := s.borders[u]; len(arena) > 0; {
			b, k := arena[0], int(arena[1])
			if s.minPts <= k && k < prev {
				w.local.CandidatesExamined += int64(k)
				w.arena = s.consume(b, arena[2:2+k], w.arena)
			}
			arena = arena[2+k:]
		}
	}}
}

// labelCores numbers the core DSU components by ascending minimum core
// index — precisely Run's formation order — writes the core labels, and
// returns the cluster count. ConcurrentDSU links by index, so a root is its
// set's minimum member and every other member's parent is smaller than it.
// One ascending pass therefore numbers each root when it reaches it and
// gives every other core point its parent's label, final by then: no Find,
// no per-root table.
func (s *onePass) labelCores(labels []int32) int32 {
	var cid int32
	for i := range labels {
		if !s.isCore(int32(i)) {
			continue
		}
		if p := s.dsu.Parent(int32(i)); p == int32(i) {
			cid++
			labels[i] = cid
		} else {
			labels[i] = labels[p]
		}
	}
	return cid
}

// attachBorders resolves every point still non-core from its recorded
// neighbourhood: the lowest cluster id among its core neighbours — Run's
// first absorber — or Noise when none of them is core. A record of at least
// MinPts entries is a point a replay turned core, labelled by labelCores.
func (s *onePass) attachBorders(labels []int32) {
	for _, arena := range s.borders {
		for len(arena) > 0 {
			b, k := arena[0], int(arena[1])
			if k < s.minPts {
				label := cluster.Noise
				for _, j := range arena[2 : 2+k] {
					if s.isCore(j) && (label == cluster.Noise || labels[j] < label) {
						label = labels[j]
					}
				}
				labels[b] = label
			}
			arena = arena[2+k:]
		}
	}
}
