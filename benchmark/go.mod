// The benchmark is a module of its own so that it builds from its own
// directory and nothing in the vdbscan module's build or tests depends on
// it. Its path sits under vdbscan/ so it may import vdbscan/internal/...
module vdbscan/benchmark

go 1.22

require vdbscan v0.0.0

replace vdbscan => ../
