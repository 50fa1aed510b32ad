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
// The tree is build-once, as in the paper: BulkLoad packs a pre-sorted
// point array bottom-up straight into the flat struct-of-arrays layout
// (flat.go), the way Prokopenko et al. (arXiv 2103.05162) pack their BVH,
// with no pointer tree in between. There is no insert or delete; a changed
// point set is a new BulkLoad.
package rtree

import (
	"fmt"
	"sync"

	"vdbscan/internal/geom"
)

// DefaultFanout is the default maximum number of entries per tree node.
// 16 keeps interior nodes within one or two cache lines of MBBs while
// keeping the tree shallow.
const DefaultFanout = 16

// Options configures tree construction.
type Options struct {
	// Fanout is the maximum entries per node; DefaultFanout when zero.
	Fanout int
	// R is the number of points packed per leaf MBB; 1 when zero.
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

// BulkLoad builds a flat tree over pts, which must already be in a
// spatially coherent order (use grid.Sort); consecutive runs of opt.R
// points become one leaf MBB each, consecutive runs of opt.Fanout entries
// one node each, level by level up to a single root.
//
// x and y are the SoA coordinate slices the ε-search filters, with
// x[i] == pts[i].X and y[i] == pts[i].Y, so trees over one point array
// (T_low and T_high) share one pair; pass nil, nil to have the tree build
// its own. The tree keeps references to all three; the caller must not
// mutate them afterwards.
//
// The layout addresses entries, children and points with int32 offsets;
// BulkLoad panics with an error wrapping ErrFlatTooLarge beyond
// math.MaxInt32 leaf entries or points.
func BulkLoad(pts []geom.Point, x, y []float64, opt Options) *Flat {
	opt = opt.withDefaults()
	if x == nil || y == nil {
		x = make([]float64, len(pts))
		y = make([]float64, len(pts))
		for i, p := range pts {
			x[i], y[i] = p.X, p.Y
		}
	} else if len(x) < len(pts) || len(y) < len(pts) {
		panic(fmt.Sprintf("rtree: BulkLoad got %d/%d coords for %d points", len(x), len(y), len(pts)))
	}
	fan := opt.Fanout

	// Level sizes bottom-up: ents[l] entries packed into nodes[l] nodes,
	// each node one run of up to fan consecutive entries. Level 0 holds the
	// leaves; every level above has one entry per node of the level below.
	ents := []int{(len(pts) + opt.R - 1) / opt.R}
	nodes := []int{max((ents[0]+fan-1)/fan, 1)}
	for nodes[len(nodes)-1] > 1 {
		below := nodes[len(nodes)-1]
		ents = append(ents, below)
		nodes = append(nodes, (below+fan-1)/fan)
	}
	height := len(nodes)
	totalEnts, numNodes := 0, 0
	for l := range nodes {
		totalEnts += ents[l]
		numNodes += nodes[l]
	}
	if err := checkCompactBounds(totalEnts, len(pts)); err != nil {
		panic(err)
	}

	// BFS order, parents before children: the root level first, each
	// level's nodes (and so its entries) contiguous, the leaves last.
	nodeBase := make([]int, height)
	entBase := make([]int, height)
	for l, nb, eb := height-1, 0, 0; l >= 0; l-- {
		nodeBase[l], entBase[l] = nb, eb
		nb += nodes[l]
		eb += ents[l]
	}

	f := &Flat{
		pts: pts, ptX: x, ptY: y,
		entMinX: make([]float64, totalEnts), entMinY: make([]float64, totalEnts),
		entMaxX: make([]float64, totalEnts), entMaxY: make([]float64, totalEnts),
		entRef: make([]int32, totalEnts), entCnt: make([]int32, totalEnts),
		nodeEnt:   make([]int32, numNodes+1),
		firstLeaf: int32(nodeBase[0]),
		height:    height, r: opt.R, fanout: fan, size: len(pts),
	}
	f.nodeEnt[numNodes] = int32(totalEnts)
	for l := range nodes {
		for k := 0; k < nodes[l]; k++ {
			f.nodeEnt[nodeBase[l]+k] = int32(entBase[l] + k*fan)
		}
	}
	setMBB := func(e int, b geom.MBB) {
		f.entMinX[e], f.entMinY[e], f.entMaxX[e], f.entMaxY[e] = b.MinX, b.MinY, b.MaxX, b.MaxY
	}
	for i, e := 0, entBase[0]; i < len(pts); i, e = i+opt.R, e+1 {
		end := min(i+opt.R, len(pts))
		setMBB(e, geom.MBBOfPoints(pts[i:end]))
		f.entRef[e], f.entCnt[e] = int32(i), int32(end-i)
	}
	for l := 1; l < height; l++ {
		// Entry k of level l is node k of level l-1: its box is the union
		// of that node's entry boxes.
		for k := 0; k < ents[l]; k++ {
			b := geom.EmptyMBB()
			lo := entBase[l-1] + k*fan
			for e := lo; e < min(lo+fan, entBase[l-1]+ents[l-1]); e++ {
				b = b.Union(f.entMBB(int32(e)))
			}
			setMBB(entBase[l]+k, b)
			f.entRef[entBase[l]+k] = int32(nodeBase[l-1] + k)
		}
	}

	maxEntries := fan // the first node of a level below the root is full
	if height == 1 {
		maxEntries = max(ents[0], 1)
	}
	f.setStack(height, maxEntries)
	return f
}

// setStack sizes the worst-case traversal stack, height·(maxEntries−1)+1,
// and pools a heap stack when it exceeds the local array searches use.
func (f *Flat) setStack(height, maxEntries int) {
	f.maxStack = height*(maxEntries-1) + 1
	if f.maxStack > flatLocalStack {
		need := f.maxStack
		f.stackPool = &sync.Pool{New: func() any {
			s := make([]int32, 0, need)
			return &s
		}}
	}
}
