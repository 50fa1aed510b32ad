package unionfind

import "sync/atomic"

// ConcurrentDSU is a lock-free disjoint-set union safe for concurrent
// Find/Union from any number of goroutines, in the style of the wait-free
// structures used by theoretically-efficient parallel DBSCAN (Wang, Gu &
// Shun, 2020) and Jayanti & Tarjan's randomized concurrent union-find.
//
// Linking is by index: the root with the larger index is always attached
// under the root with the smaller index via a single CAS, so parent chains
// strictly decrease and can never form a cycle, regardless of interleaving.
// Find performs lock-free path halving. Without ranks the worst-case chain
// is linear in theory, but halving keeps observed chains short; for the
// ε-graph unions of parallel DBSCAN the structure is far from adversarial.
//
// A useful by-product of index-ordered linking: after all unions complete,
// every set's representative is its minimum member index, which lets the
// labeling pass number clusters deterministically (by smallest core point)
// without a separate reduction.
type ConcurrentDSU struct {
	parent []atomic.Int32
}

// NewConcurrent returns a concurrent DSU over n singleton sets.
func NewConcurrent(n int) *ConcurrentDSU {
	d := &ConcurrentDSU{parent: make([]atomic.Int32, n)}
	for i := range d.parent {
		d.parent[i].Store(int32(i))
	}
	return d
}

// Clone returns an independent copy of d's current partition. The caller
// must ensure no Union is in flight; concurrent Find calls are fine (path
// halving never changes a set), which is why the parents are copied
// element-wise through Load and Store rather than with copy().
func (d *ConcurrentDSU) Clone() *ConcurrentDSU {
	c := &ConcurrentDSU{parent: make([]atomic.Int32, len(d.parent))}
	for i := range d.parent {
		c.parent[i].Store(d.parent[i].Load())
	}
	return c
}

// Len returns the number of elements.
func (d *ConcurrentDSU) Len() int { return len(d.parent) }

// Find returns the current representative of x's set, halving the path as
// it walks. Concurrent unions may change the representative; once all
// unions have happened-before the call, the result is stable and equals
// the set's minimum element.
func (d *ConcurrentDSU) Find(x int32) int32 {
	for {
		p := d.parent[x].Load()
		if p == x {
			return x
		}
		gp := d.parent[p].Load()
		if gp != p {
			// Path halving: x -> grandparent. A lost CAS only means
			// someone else already shortened this link.
			d.parent[x].CompareAndSwap(p, gp)
		}
		x = p
	}
}

// Union merges the sets containing a and b, returning true when they were
// distinct at linearization. Safe to call concurrently with other Union
// and Find calls.
func (d *ConcurrentDSU) Union(a, b int32) bool {
	for {
		ra, rb := d.Find(a), d.Find(b)
		if ra == rb {
			return false
		}
		if ra < rb {
			ra, rb = rb, ra
		}
		// Attach the larger-index root under the smaller. The CAS fails if
		// ra stopped being a root in the meantime; re-resolve and retry.
		if d.parent[ra].CompareAndSwap(ra, rb) {
			return true
		}
	}
}

// Same reports whether a and b are currently in one set.
func (d *ConcurrentDSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }
