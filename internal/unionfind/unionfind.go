// Package unionfind provides disjoint-set union structures: the sequential
// DSU of the Patwary et al. (SC 2012) DBSCAN formulation — the paper's
// reference [14] — and a lock-free ConcurrentDSU for parallel cluster
// merging. The package is deliberately dependency-free so both the
// clustering hot paths (internal/dbscan) and the incremental maintenance
// layer (internal/incremental) can build on it.
package unionfind

// DSU is a disjoint-set union structure with union by rank and path
// compression, exported for reuse in tests and future distributed merges.
type DSU struct {
	parent []int32
	rank   []uint8
}

// NewDSU returns a structure over n singleton sets.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]uint8, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set, compressing the path.
func (d *DSU) Find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the sets containing a and b; it returns true when they were
// previously distinct.
func (d *DSU) Union(a, b int32) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}

// Same reports whether a and b are in one set.
func (d *DSU) Same(a, b int32) bool { return d.Find(a) == d.Find(b) }
