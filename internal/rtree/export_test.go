package rtree

// Test-only accounts of a Flat.

// Stats summarizes tree shape.
type Stats struct {
	Height      int
	Nodes       int
	LeafNodes   int
	LeafEntries int
	Points      int
	R           int
	Fanout      int
}

// Stats reports the tree's shape.
func (f *Flat) Stats() Stats {
	numNodes := len(f.nodeEnt) - 1
	return Stats{
		Height:      f.height,
		Nodes:       numNodes,
		LeafNodes:   numNodes - int(f.firstLeaf),
		LeafEntries: int(f.nodeEnt[numNodes] - f.nodeEnt[f.firstLeaf]),
		Points:      f.size,
		R:           f.r,
		Fanout:      f.fanout,
	}
}
