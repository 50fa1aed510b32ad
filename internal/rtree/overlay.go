package rtree

import (
	"fmt"

	"vdbscan/internal/geom"
	"vdbscan/internal/kernel"
)

// Overlay is a small delta of mutations staged on top of a frozen Flat
// snapshot: points inserted since the freeze and snapshot-covered points
// deleted since the freeze. It is the epoch-maintenance half of the
// flat-index design — the Flat stays immutable (and therefore safe for
// concurrent, zero-allocation searches) while a stream of inserts and
// deletes accumulates here until the holder re-freezes.
//
// Searches merge the overlay in two steps: indices in the deleted set are
// filtered out of the snapshot's results, and the added buffer is
// brute-force distance-checked against the live point array. The overlay
// is kept deliberately small (the holder re-freezes once it crosses a
// size threshold), so the linear scan costs about as much as touching a
// few extra tree leaves.
//
// Mutation accounting: Muts counts every recorded event, so
// Flat.Generation() + Muts() == Tree.Generation() holds exactly when the
// overlay has captured every tree mutation since the freeze. Holders use
// that identity to detect out-of-band mutations (staleness) instead of
// serving wrong neighbors.
//
// The zero value is an empty overlay ready for use. An Overlay is not
// safe for concurrent mutation.
type Overlay struct {
	// added holds live indices not covered by the snapshot, in insertion
	// order (deterministic modulo swap-removal on delete).
	added []int32
	// addedPos maps an added index to its position in added, for O(1)
	// removal when an overlay-added point is deleted again.
	addedPos map[int32]int32
	// deletedBits marks snapshot-covered indices removed since the
	// freeze, one bit per index. A bitset rather than a map: merged
	// searches test deletion once per flat result, and on that path a
	// hash lookup per candidate dominated the whole merge cost.
	deletedBits []uint64
	numDeleted  int
	// muts counts recorded mutation events (inserts + deletes).
	muts uint64
}

// RecordInsert stages index idx (a point not covered by the snapshot).
func (o *Overlay) RecordInsert(idx int32) {
	if o.addedPos == nil {
		o.addedPos = make(map[int32]int32)
	}
	o.addedPos[idx] = int32(len(o.added))
	o.added = append(o.added, idx)
	o.muts++
}

// RecordDelete stages the removal of index idx. An index previously
// staged by RecordInsert is removed from the added buffer (it never
// existed in any snapshot); any other index is assumed snapshot-covered
// and joins the deleted set.
func (o *Overlay) RecordDelete(idx int32) {
	o.muts++
	if pos, ok := o.addedPos[idx]; ok {
		last := int32(len(o.added) - 1)
		moved := o.added[last]
		o.added[pos] = moved
		o.addedPos[moved] = pos
		o.added = o.added[:last]
		delete(o.addedPos, idx)
		return
	}
	w := int(idx) >> 6
	for len(o.deletedBits) <= w {
		o.deletedBits = append(o.deletedBits, 0)
	}
	bit := uint64(1) << (uint(idx) & 63)
	if o.deletedBits[w]&bit == 0 {
		o.deletedBits[w] |= bit
		o.numDeleted++
	}
}

// Added returns the staged insertions (do not mutate).
func (o *Overlay) Added() []int32 { return o.added }

// IsDeleted reports whether idx is in the staged deleted set.
func (o *Overlay) IsDeleted(idx int32) bool {
	w := int(idx) >> 6
	return w < len(o.deletedBits) && o.deletedBits[w]&(1<<(uint(idx)&63)) != 0
}

// NumAdded and NumDeleted report the overlay's current net delta sizes.
func (o *Overlay) NumAdded() int   { return len(o.added) }
func (o *Overlay) NumDeleted() int { return o.numDeleted }

// Muts returns the number of mutation events recorded — the quantity
// that must equal the tree-generation gap for the overlay to be a
// complete delta.
func (o *Overlay) Muts() uint64 { return o.muts }

// Size returns the merge cost proxy: staged insertions plus deletions.
func (o *Overlay) Size() int { return len(o.added) + o.numDeleted }

// String implements fmt.Stringer.
func (o *Overlay) String() string {
	return fmt.Sprintf("rtree.Overlay{added=%d deleted=%d muts=%d}",
		len(o.added), o.numDeleted, o.muts)
}

// EpsSearchOverlay is Flat.EpsSearch merged with staged overlay deltas:
// snapshot results whose index sits in any overlay's deleted set are
// filtered out, and every overlay's added indices are distance-checked
// against pts (the live point array the indices address). Results append
// to dst; the triple mirrors EpsSearch (added points count as candidates,
// the brute-force pass counts as zero extra nodes). Overlays later in ovs
// stack on earlier ones — a holder mid-refreeze passes the pending
// (being-compacted) overlay first and the active one second.
func EpsSearchOverlay(f *Flat, pts []geom.Point, p geom.Point, eps float64, dst []int32, ovs ...*Overlay) (out []int32, candidates, nodesVisited int) {
	base := len(dst)
	dst, candidates, nodesVisited = f.EpsSearch(p, eps, dst)
	dst = filterDeleted(dst, base, ovs)
	epsSq := eps * eps
	anyDeletes := false
	for _, ov := range ovs {
		if ov.numDeleted > 0 {
			anyDeletes = true
			break
		}
	}
	for _, ov := range ovs {
		if !anyDeletes {
			// Insert-only stream (the common epoch shape): the whole added
			// buffer goes through the block kernel in one shot.
			candidates += len(ov.added)
			dst = kernel.FilterEpsPoints(dst, pts, ov.added, p.X, p.Y, epsSq)
			continue
		}
		for _, idx := range ov.added {
			if overlaysDelete(ovs, idx) {
				continue
			}
			candidates++
			if p.DistSq(pts[idx]) <= epsSq {
				dst = append(dst, idx)
			}
		}
	}
	return dst, candidates, nodesVisited
}

// filterDeleted compacts dst[base:] in place, dropping indices deleted by
// any overlay. The common no-deletions case is a handful of nil-map
// checks and no writes.
func filterDeleted(dst []int32, base int, ovs []*Overlay) []int32 {
	any := false
	for _, ov := range ovs {
		if ov.numDeleted > 0 {
			any = true
			break
		}
	}
	if !any {
		return dst
	}
	kept := dst[:base]
	for _, idx := range dst[base:] {
		if !overlaysDelete(ovs, idx) {
			kept = append(kept, idx)
		}
	}
	return kept
}

// overlaysDelete reports whether any overlay's deleted set holds idx.
func overlaysDelete(ovs []*Overlay, idx int32) bool {
	for _, ov := range ovs {
		if ov.IsDeleted(idx) {
			return true
		}
	}
	return false
}
