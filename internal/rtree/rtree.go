// Package rtree implements the R-tree spatial index (Guttman, SIGMOD 1984)
// specialized for VariantDBSCAN's workload (paper §IV-A).
//
// The distinguishing feature versus a textbook R-tree is the leaf layout:
// each leaf *entry* covers a contiguous run of r points in a spatially
// pre-sorted point array (see internal/grid), and the entry stores the run's
// minimum bounding box (MBB). A lookup into the shared point array maps an
// overlapping MBB to its candidate points. Raising r
//
//   - shrinks the tree (⌈|D|/r⌉ leaf entries instead of |D|), cutting the
//     pointer-chasing memory traffic that makes 2-D DBSCAN memory-bound, but
//   - grows the MBB areas, so more candidate points must be distance-filtered
//     (extra compute).
//
// The paper exploits this compute-for-memory trade with r ≈ 70–110 for the
// ε-search tree T_low, and keeps a second tree T_high with r = 1 for exact
// cluster-MBB sweeps (Algorithm 3, line 11).
//
// Two construction paths are provided:
//
//   - BulkLoad packs a pre-sorted point array bottom-up (the paper's path);
//   - New + Insert grows a dynamic tree one point at a time using Guttman's
//     quadratic split, for callers with incremental data.
package rtree

import (
	"fmt"

	"vdbscan/internal/geom"
)

// DefaultFanout is the default maximum number of entries per tree node.
// 16 keeps interior nodes within one or two cache lines of MBBs while
// keeping the tree shallow.
const DefaultFanout = 16

// entry is one slot in a node: either a child pointer (interior) or a run of
// points [start, start+count) in the tree's point array (leaf).
type entry struct {
	mbb   geom.MBB
	child *node // nil in leaf nodes
	start int32 // leaf only
	count int32 // leaf only
}

type node struct {
	leaf    bool
	entries []entry
}

func (n *node) mbb() geom.MBB {
	b := geom.EmptyMBB()
	for _, e := range n.entries {
		b = b.Union(e.mbb)
	}
	return b
}

// Tree is an R-tree over a shared array of 2-D points. The tree stores point
// indices, never coordinates, so the caller's point array is the single
// source of truth; Points returns it.
type Tree struct {
	root   *node
	pts    []geom.Point
	fanout int
	r      int // points per leaf entry used at construction (1 for dynamic)
	size   int // number of indexed points
	height int
	// gen counts structural mutations (inserts and deletes) since
	// construction. A Flat snapshot records the generation it was frozen
	// at, so any holder of both can detect that the snapshot is stale
	// instead of serving pre-mutation search results.
	gen uint64
}

// Options configures tree construction.
type Options struct {
	// Fanout is the maximum entries per node; DefaultFanout when zero.
	Fanout int
	// R is the number of points packed per leaf MBB (BulkLoad only);
	// 1 when zero.
	R int
}

func (o Options) withDefaults() Options {
	if o.Fanout <= 0 {
		o.Fanout = DefaultFanout
	}
	if o.Fanout < 2 {
		o.Fanout = 2
	}
	if o.R <= 0 {
		o.R = 1
	}
	return o
}

// New returns an empty dynamic tree over an initially empty point set.
func New(opt Options) *Tree {
	opt = opt.withDefaults()
	return &Tree{
		root:   &node{leaf: true},
		fanout: opt.Fanout,
		r:      1,
		height: 1,
	}
}

// BulkLoad builds a tree over pts, which must already be in a spatially
// coherent order (use grid.Sort); consecutive runs of opt.R points become
// one leaf MBB each. The tree keeps a reference to pts; the caller must not
// mutate it afterwards.
func BulkLoad(pts []geom.Point, opt Options) *Tree {
	opt = opt.withDefaults()
	t := &Tree{pts: pts, fanout: opt.Fanout, r: opt.R, size: len(pts)}
	if len(pts) == 0 {
		t.root = &node{leaf: true}
		t.height = 1
		return t
	}

	// Level 0: leaf entries covering runs of R points.
	nLeaves := (len(pts) + opt.R - 1) / opt.R
	leafEntries := make([]entry, 0, nLeaves)
	for start := 0; start < len(pts); start += opt.R {
		end := start + opt.R
		if end > len(pts) {
			end = len(pts)
		}
		leafEntries = append(leafEntries, entry{
			mbb:   geom.MBBOfPoints(pts[start:end]),
			start: int32(start),
			count: int32(end - start),
		})
	}

	// Pack entries into leaf nodes, then build interior levels bottom-up.
	level := packNodes(leafEntries, opt.Fanout, true)
	t.height = 1
	for len(level) > 1 {
		parents := make([]entry, len(level))
		for i, n := range level {
			parents[i] = entry{mbb: n.mbb(), child: n}
		}
		level = packNodes(parents, opt.Fanout, false)
		t.height++
	}
	t.root = level[0]
	return t
}

// packNodes groups consecutive entries into nodes of at most fanout entries.
func packNodes(entries []entry, fanout int, leaf bool) []*node {
	nNodes := (len(entries) + fanout - 1) / fanout
	if nNodes == 0 {
		nNodes = 1
	}
	nodes := make([]*node, 0, nNodes)
	for start := 0; start < len(entries); start += fanout {
		end := start + fanout
		if end > len(entries) {
			end = len(entries)
		}
		nodes = append(nodes, &node{leaf: leaf, entries: entries[start:end:end]})
	}
	if len(nodes) == 0 {
		nodes = append(nodes, &node{leaf: leaf})
	}
	return nodes
}

// Points returns the tree's backing point array. Leaf ranges reported by
// Search index into this slice.
func (t *Tree) Points() []geom.Point { return t.pts }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a tree that is a single leaf).
func (t *Tree) Height() int { return t.height }

// R returns the leaf occupancy the tree was built with (1 for dynamic trees).
func (t *Tree) R() int { return t.r }

// Generation returns the tree's mutation counter: 0 after construction,
// incremented by every Insert, Delete, and DeleteIndex.
// Compare against Flat.Generation to detect a stale frozen snapshot.
func (t *Tree) Generation() uint64 { return t.gen }

// Insert adds point p to a dynamic tree. Each inserted point becomes its own
// leaf MBB (r = 1). Insert must not be used on a bulk-loaded tree whose
// backing array the caller shares — the tree appends to its own copy.
func (t *Tree) Insert(p geom.Point) {
	idx := int32(len(t.pts))
	t.pts = append(t.pts, p)
	t.size++
	t.gen++
	e := entry{mbb: geom.MBBOf(p), start: idx, count: 1}
	split := t.insert(t.root, e)
	if split != nil {
		// Root was split: grow the tree upward.
		newRoot := &node{
			leaf: false,
			entries: []entry{
				{mbb: t.root.mbb(), child: t.root},
				{mbb: split.mbb(), child: split},
			},
		}
		t.root = newRoot
		t.height++
	}
}

// Snapshot returns a structurally independent copy of the tree: all nodes
// and entries are deep-copied, while the (append-only) point array is
// shared with its length capped at snapshot time. Further Insert/Delete
// calls on the original never affect the copy, so the copy can be handed
// to a background goroutine — e.g. for Compact — while the original keeps
// mutating. The clone carries the generation at snapshot time.
func (t *Tree) Snapshot() *Tree {
	cp := &Tree{
		pts:    t.pts[:len(t.pts):len(t.pts)],
		fanout: t.fanout,
		r:      t.r,
		size:   t.size,
		height: t.height,
		gen:    t.gen,
	}
	cp.root = cloneNode(t.root)
	return cp
}

// cloneNode deep-copies a node and its subtree.
func cloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	m := &node{leaf: n.leaf, entries: append([]entry(nil), n.entries...)}
	if !n.leaf {
		for i := range m.entries {
			m.entries[i].child = cloneNode(m.entries[i].child)
		}
	}
	return m
}

// insert places e under n, returning a new sibling node if n was split.
func (t *Tree) insert(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.fanout {
			return t.splitNode(n)
		}
		return nil
	}
	// ChooseLeaf: descend into the child needing least enlargement,
	// breaking ties by smallest area.
	best := 0
	bestEnl := n.entries[0].mbb.Enlargement(e.mbb)
	bestArea := n.entries[0].mbb.Area()
	for i := 1; i < len(n.entries); i++ {
		enl := n.entries[i].mbb.Enlargement(e.mbb)
		area := n.entries[i].mbb.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	child := n.entries[best].child
	split := t.insert(child, e)
	n.entries[best].mbb = child.mbb()
	if split != nil {
		n.entries = append(n.entries, entry{mbb: split.mbb(), child: split})
		if len(n.entries) > t.fanout {
			return t.splitNode(n)
		}
	}
	return nil
}

// splitNode performs Guttman's quadratic split on an overfull node,
// keeping roughly half the entries in n and returning the rest in a new
// sibling.
func (t *Tree) splitNode(n *node) *node {
	entries := n.entries
	// PickSeeds: the pair wasting the most area if grouped together.
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].mbb.Union(entries[j].mbb).Area() -
				entries[i].mbb.Area() - entries[j].mbb.Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}

	groupA := []entry{entries[seedA]}
	groupB := []entry{entries[seedB]}
	mbbA := entries[seedA].mbb
	mbbB := entries[seedB].mbb

	minFill := t.fanout / 2
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// If one group must take all remaining entries to reach minFill, do so.
		if len(groupA)+len(rest) == minFill {
			groupA = append(groupA, rest...)
			for _, e := range rest {
				mbbA = mbbA.Union(e.mbb)
			}
			break
		}
		if len(groupB)+len(rest) == minFill {
			groupB = append(groupB, rest...)
			for _, e := range rest {
				mbbB = mbbB.Union(e.mbb)
			}
			break
		}
		// PickNext: entry with the greatest preference for one group.
		bestIdx, bestDiff := 0, -1.0
		for i, e := range rest {
			dA := mbbA.Enlargement(e.mbb)
			dB := mbbB.Enlargement(e.mbb)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		dA := mbbA.Enlargement(e.mbb)
		dB := mbbB.Enlargement(e.mbb)
		switch {
		case dA < dB:
			groupA = append(groupA, e)
			mbbA = mbbA.Union(e.mbb)
		case dB < dA:
			groupB = append(groupB, e)
			mbbB = mbbB.Union(e.mbb)
		case mbbA.Area() <= mbbB.Area():
			groupA = append(groupA, e)
			mbbA = mbbA.Union(e.mbb)
		default:
			groupB = append(groupB, e)
			mbbB = mbbB.Union(e.mbb)
		}
	}

	n.entries = groupA
	return &node{leaf: n.leaf, entries: groupB}
}

// LeafRange is one leaf entry overlapping a search box: count points
// beginning at index start in Points().
type LeafRange struct {
	MBB   geom.MBB
	Start int
	Count int
}

// Search visits every leaf entry whose MBB intersects q and reports the
// number of tree nodes touched (a proxy for memory accesses). The visit
// callback receives the matching leaf ranges.
func (t *Tree) Search(q geom.MBB, visit func(LeafRange)) (nodesVisited int) {
	if t.root == nil {
		return 0
	}
	return t.search(t.root, q, visit)
}

func (t *Tree) search(n *node, q geom.MBB, visit func(LeafRange)) int {
	visited := 1
	if n.leaf {
		for _, e := range n.entries {
			if e.mbb.Intersects(q) {
				visit(LeafRange{MBB: e.mbb, Start: int(e.start), Count: int(e.count)})
			}
		}
		return visited
	}
	for _, e := range n.entries {
		if e.mbb.Intersects(q) {
			visited += t.search(e.child, q, visit)
		}
	}
	return visited
}

// SearchCandidates collects the indices of all points in leaf entries
// overlapping q, appending to dst (which may be nil) and returning it. The
// returned indices are candidates only: the caller must distance-filter.
func (t *Tree) SearchCandidates(q geom.MBB, dst []int32) []int32 {
	t.Search(q, func(lr LeafRange) {
		for i := 0; i < lr.Count; i++ {
			dst = append(dst, int32(lr.Start+i))
		}
	})
	return dst
}

// Stats summarizes tree shape for diagnostics and the indexing ablation.
type Stats struct {
	Height      int
	Nodes       int
	LeafNodes   int
	LeafEntries int
	Points      int
	R           int
	Fanout      int
}

// Stats walks the tree and reports its shape.
func (t *Tree) Stats() Stats {
	s := Stats{Height: t.height, Points: t.size, R: t.r, Fanout: t.fanout}
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		if n.leaf {
			s.LeafNodes++
			s.LeafEntries += len(n.entries)
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return s
}

// String implements fmt.Stringer with a shape summary.
func (t *Tree) String() string {
	s := t.Stats()
	return fmt.Sprintf("rtree{points=%d r=%d fanout=%d height=%d nodes=%d leafEntries=%d}",
		s.Points, s.R, s.Fanout, s.Height, s.Nodes, s.LeafEntries)
}

// CheckInvariants validates structural invariants, returning a descriptive
// error when violated. Used by tests and available to callers for debugging.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	covered := 0
	var walk func(n *node, depth int) (geom.MBB, error)
	walk = func(n *node, depth int) (geom.MBB, error) {
		box := geom.EmptyMBB()
		if n.leaf {
			if depth != t.height {
				return box, fmt.Errorf("rtree: leaf at depth %d, height %d", depth, t.height)
			}
			for _, e := range n.entries {
				if e.child != nil {
					return box, fmt.Errorf("rtree: leaf entry with child")
				}
				if e.count <= 0 {
					return box, fmt.Errorf("rtree: leaf entry with count %d", e.count)
				}
				if int(e.start)+int(e.count) > len(t.pts) {
					return box, fmt.Errorf("rtree: leaf range [%d,%d) out of bounds %d",
						e.start, int(e.start)+int(e.count), len(t.pts))
				}
				for i := int(e.start); i < int(e.start)+int(e.count); i++ {
					if !e.mbb.ContainsPoint(t.pts[i]) {
						return box, fmt.Errorf("rtree: point %d outside its leaf MBB", i)
					}
				}
				covered += int(e.count)
				box = box.Union(e.mbb)
			}
			return box, nil
		}
		if len(n.entries) == 0 {
			return box, fmt.Errorf("rtree: empty interior node")
		}
		for _, e := range n.entries {
			if e.child == nil {
				return box, fmt.Errorf("rtree: interior entry without child")
			}
			childBox, err := walk(e.child, depth+1)
			if err != nil {
				return box, err
			}
			if !e.mbb.ContainsMBB(childBox) && !childBox.IsEmpty() {
				return box, fmt.Errorf("rtree: entry MBB %v does not cover child %v", e.mbb, childBox)
			}
			box = box.Union(e.mbb)
		}
		return box, nil
	}
	if _, err := walk(t.root, 1); err != nil {
		return err
	}
	if covered != t.size {
		return fmt.Errorf("rtree: leaves cover %d points, size is %d", covered, t.size)
	}
	return nil
}
