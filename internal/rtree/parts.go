package rtree

import (
	"fmt"

	"vdbscan/internal/geom"
)

// FlatParts is the exported structural skeleton of a Flat: every array and
// scalar the frozen layout is made of, minus the point storage (which the
// caller owns and provides again at reconstruction). It exists for the
// persistence layer — Parts exposes the arrays for writing, FlatFromParts
// rebuilds a servable Flat around arrays read (or mapped) back in.
//
// The slices are aliased in both directions, never copied: a Flat built by
// FlatFromParts serves searches straight out of the caller's backing
// memory, which is what makes an mmap-loaded snapshot zero-deserialization.
type FlatParts struct {
	EntMinX, EntMinY, EntMaxX, EntMaxY []float64
	EntRef, EntCnt                     []int32
	NodeEnt                            []int32
	FirstLeaf                          int32
	Height, R, Fanout, Size            int
}

// Parts exposes the Flat's structural arrays and scalars for serialization.
// The returned slices alias the Flat — treat them as read-only.
func (f *Flat) Parts() FlatParts {
	return FlatParts{
		EntMinX: f.entMinX, EntMinY: f.entMinY,
		EntMaxX: f.entMaxX, EntMaxY: f.entMaxY,
		EntRef: f.entRef, EntCnt: f.entCnt,
		NodeEnt:   f.nodeEnt,
		FirstLeaf: f.firstLeaf,
		Height:    f.height, R: f.r, Fanout: f.fanout, Size: f.size,
	}
}

// FlatFromParts reconstructs a servable Flat from previously exported
// parts plus the point storage (pts and its SoA coordinate slices, exactly
// as BulkLoad would have received them). The input arrays are
// aliased, not copied.
//
// Because the parts may come from an untrusted file, the structure is
// fully validated before any search can run over it: entry ranges must be
// a monotone partition of the entry arrays, interior children must be
// forward references inside the node table (so traversals provably
// terminate), every non-root node must be referenced exactly once, leaves
// must sit at one uniform depth, and leaf point ranges must stay inside
// the point array. The worst-case traversal stack is recomputed from the
// observed shape, never trusted from the input. Invalid parts return an
// error; FlatFromParts never panics on hostile input.
func FlatFromParts(parts FlatParts, x, y []float64, pts []geom.Point) (*Flat, error) {
	bad := func(format string, args ...any) (*Flat, error) {
		return nil, fmt.Errorf("rtree: invalid flat parts: "+format, args...)
	}
	nE := len(parts.EntRef)
	if len(parts.EntMinX) != nE || len(parts.EntMinY) != nE ||
		len(parts.EntMaxX) != nE || len(parts.EntMaxY) != nE ||
		len(parts.EntCnt) != nE {
		return bad("entry arrays disagree on length")
	}
	numNodes := len(parts.NodeEnt) - 1
	if numNodes < 1 {
		return bad("node table has %d entries, want >= 2", len(parts.NodeEnt))
	}
	if parts.NodeEnt[0] != 0 || int(parts.NodeEnt[numNodes]) != nE {
		return bad("node entry ranges do not span the entry arrays")
	}
	if parts.FirstLeaf < 0 || int(parts.FirstLeaf) > numNodes {
		return bad("firstLeaf %d outside [0, %d]", parts.FirstLeaf, numNodes)
	}
	if parts.Size < 0 || parts.Size != len(pts) {
		return bad("size %d != %d points", parts.Size, len(pts))
	}
	if len(x) < parts.Size || len(y) < parts.Size {
		return bad("got %d/%d coords for %d points", len(x), len(y), parts.Size)
	}

	// One forward scan establishes every traversal-safety invariant: BFS
	// order means a node's parent precedes it, so depths propagate in a
	// single pass and an unreferenced node is detectable the moment it is
	// reached.
	depth := make([]int32, numNodes)
	referenced := make([]bool, numNodes)
	depth[0], referenced[0] = 1, true
	maxEntries := 1
	maxDepth := 1
	leafDepth := int32(-1)
	for ni := 0; ni < numNodes; ni++ {
		if !referenced[ni] {
			return bad("node %d is unreachable", ni)
		}
		lo, hi := parts.NodeEnt[ni], parts.NodeEnt[ni+1]
		if lo > hi {
			return bad("node %d has negative entry range [%d, %d)", ni, lo, hi)
		}
		if int(hi-lo) > maxEntries {
			maxEntries = int(hi - lo)
		}
		if int(depth[ni]) > maxDepth {
			maxDepth = int(depth[ni])
		}
		if ni >= int(parts.FirstLeaf) {
			if leafDepth < 0 {
				leafDepth = depth[ni]
			} else if depth[ni] != leafDepth {
				return bad("leaf %d at depth %d, want uniform depth %d", ni, depth[ni], leafDepth)
			}
			for e := lo; e < hi; e++ {
				ref, cnt := parts.EntRef[e], parts.EntCnt[e]
				if ref < 0 || cnt < 0 || int(ref)+int(cnt) > parts.Size {
					return bad("leaf entry %d range [%d, %d) outside %d points", e, ref, int(ref)+int(cnt), parts.Size)
				}
			}
			continue
		}
		for e := lo; e < hi; e++ {
			ref := parts.EntRef[e]
			if int(ref) <= ni || int(ref) >= numNodes {
				return bad("interior entry %d child %d not a forward node reference from %d", e, ref, ni)
			}
			if referenced[ref] {
				return bad("node %d referenced twice", ref)
			}
			referenced[ref] = true
			depth[ref] = depth[ni] + 1
		}
	}

	f := &Flat{
		pts: pts, ptX: x, ptY: y,
		entMinX: parts.EntMinX, entMinY: parts.EntMinY,
		entMaxX: parts.EntMaxX, entMaxY: parts.EntMaxY,
		entRef: parts.EntRef, entCnt: parts.EntCnt,
		nodeEnt:   parts.NodeEnt,
		firstLeaf: parts.FirstLeaf,
		height:    parts.Height, r: parts.R, fanout: parts.Fanout,
		size: parts.Size,
	}
	f.setStack(maxDepth, maxEntries)
	return f, nil
}
