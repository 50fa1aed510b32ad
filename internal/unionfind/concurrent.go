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
//
// The parents are plain int32s read and written through sync/atomic's
// functions. Where no other goroutine can reach an element — while the
// constructor or Clone fills a slice not yet shared, or under Attach's
// precondition — a plain store does the same job without the locked
// exchange an atomic store is on amd64.
type ConcurrentDSU struct {
	parent []int32
}

// NewConcurrent returns a concurrent DSU over n singleton sets.
func NewConcurrent(n int) *ConcurrentDSU {
	d := &ConcurrentDSU{parent: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Clone returns an independent copy of d's current partition. The caller
// must ensure no Union is in flight; concurrent Find calls are fine (path
// halving never changes a set), which is why the parents are read
// element-wise through atomic loads rather than with copy().
func (d *ConcurrentDSU) Clone() *ConcurrentDSU {
	c := &ConcurrentDSU{parent: make([]int32, len(d.parent))}
	for i := range d.parent {
		c.parent[i] = atomic.LoadInt32(&d.parent[i])
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
		p := atomic.LoadInt32(&d.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&d.parent[p])
		if gp != p {
			// Path halving: x -> grandparent. A lost CAS only means
			// someone else already shortened this link.
			atomic.CompareAndSwapInt32(&d.parent[x], p, gp)
		}
		x = p
	}
}

// Parent returns x's current parent: x itself when x is a root, otherwise
// a smaller member of x's set — links go by index, and path halving only
// replaces a parent with one of its ancestors.
func (d *ConcurrentDSU) Parent(x int32) int32 { return atomic.LoadInt32(&d.parent[x]) }

// Attach makes root the parent of x with one plain store: no Find, no CAS.
// It is a Union for callers that know more than Union may assume, and it
// holds only under their precondition: x is still a singleton, root ≤ x is
// a root, and no other goroutine reads or writes x's parent until a barrier
// orders this store before its next use. Then the link keeps parent chains
// decreasing, and root stays its set's minimum member, as Union would
// leave it.
func (d *ConcurrentDSU) Attach(x, root int32) { d.parent[x] = root }

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
		if atomic.CompareAndSwapInt32(&d.parent[ra], ra, rb) {
			return true
		}
	}
}

// Same reports whether a and b are currently in one set.
func (d *ConcurrentDSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }
