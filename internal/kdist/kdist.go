// Package kdist implements the sorted k-distance heuristic the original
// DBSCAN paper proposes for choosing ε — and which this paper invokes in
// §V-B ("a heuristic [7] for selecting minpts finds 4 to be a good value").
//
// For each point, the distance to its k-th nearest neighbor is computed
// (k = minpts−1 in the classic formulation, because the point itself
// counts toward minpts); the distances sorted in descending order form the
// k-dist graph, whose "valley"/elbow marks the ε separating cluster-interior
// points from noise. SuggestEps locates that elbow as the point of maximum
// distance from the chord connecting the curve's endpoints.
package kdist

import (
	"fmt"
	"math"
	"sort"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/rtree"
)

// DefaultMinPts is the paper-endorsed minpts for 2-D data.
const DefaultMinPts = 4

// Curve computes the descending sorted k-dist graph over the index: one
// entry per point holding the distance to its k-th nearest neighbor
// (excluding the point itself). k must be ≥ 1. Points with a non-finite
// coordinate, and points whose k-distance is not finite (a squared
// distance past the float64 range), have no place on the curve and are
// skipped. Curve bulk-loads its own one-point-per-leaf R-tree over ix.Pts
// for the nearest-neighbour queries.
func Curve(ix *dbscan.Index, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("kdist: k must be >= 1, got %d", k)
	}
	n := ix.Len()
	if n == 0 {
		return nil, nil
	}
	tree := rtree.BulkLoad(ix.Pts, ix.X, ix.Y, rtree.Options{R: 1})
	dists := make([]float64, 0, n)
	for _, p := range ix.Pts {
		if !geom.Finite(p.X, p.Y) {
			continue
		}
		// k+1 nearest including self (distance 0 at rank 0); with fewer
		// than k other points, the farthest available.
		nn := tree.NearestK(p, k+1)
		if d := math.Sqrt(nn[len(nn)-1].DistSq); !math.IsInf(d, 1) {
			dists = append(dists, d)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dists)))
	return dists, nil
}

// Elbow returns the index of the elbow of a descending curve: the point
// with maximum perpendicular distance from the straight line through the
// first and last points. Returns 0 for curves shorter than 3 points.
func Elbow(curve []float64) int {
	n := len(curve)
	if n < 3 {
		return 0
	}
	x1, y1 := 0.0, curve[0]
	x2, y2 := float64(n-1), curve[n-1]
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return 0
	}
	best, bestDist := 0, -1.0
	for i := 1; i < n-1; i++ {
		// Perpendicular distance from (i, curve[i]) to the chord.
		d := math.Abs(dy*float64(i)-dx*curve[i]+x2*y1-y2*x1) / norm
		if d > bestDist {
			best, bestDist = i, d
		}
	}
	if bestDist <= 1e-12 {
		return 0 // straight curve: no elbow
	}
	return best
}

// Suggestion is a recommended DBSCAN parameterization.
type Suggestion struct {
	Params dbscan.Params
	// NoiseEstimate is the fraction of points whose k-dist exceeds the
	// suggested ε (they would likely be noise at that setting).
	NoiseEstimate float64
}

// SuggestEps runs the heuristic at the given minpts and returns the ε at
// the k-dist curve's elbow.
func SuggestEps(ix *dbscan.Index, minPts int) (Suggestion, error) {
	if minPts < 2 {
		return Suggestion{}, fmt.Errorf("kdist: minpts must be >= 2, got %d", minPts)
	}
	curve, err := Curve(ix, minPts-1)
	if err != nil {
		return Suggestion{}, err
	}
	if len(curve) == 0 {
		if ix.Len() == 0 {
			return Suggestion{}, fmt.Errorf("kdist: empty index")
		}
		return Suggestion{}, fmt.Errorf("kdist: no point has a finite %d-distance", minPts-1)
	}
	e := Elbow(curve)
	eps := curve[e]
	if eps <= 0 {
		// Degenerate (duplicate-heavy) data: fall back to the largest
		// nonzero distance, or a tiny positive value.
		for _, d := range curve {
			if d > 0 {
				eps = d
				break
			}
		}
		if eps <= 0 {
			eps = 1e-9
		}
	}
	return Suggestion{
		Params:        dbscan.Params{Eps: eps, MinPts: minPts},
		NoiseEstimate: float64(e) / float64(len(curve)),
	}, nil
}

// SuggestVariants builds a variant set bracketing the heuristic ε: the
// elbow value scaled by factors, crossed with the given minpts values —
// a principled way to generate the V sets VariantDBSCAN consumes.
func SuggestVariants(ix *dbscan.Index, minptsValues []int, epsFactors []float64) ([]dbscan.Params, error) {
	if len(minptsValues) == 0 || len(epsFactors) == 0 {
		return nil, fmt.Errorf("kdist: need at least one minpts and one eps factor")
	}
	base, err := SuggestEps(ix, DefaultMinPts)
	if err != nil {
		return nil, err
	}
	out := make([]dbscan.Params, 0, len(minptsValues)*len(epsFactors))
	for _, f := range epsFactors {
		for _, mp := range minptsValues {
			out = append(out, dbscan.Params{Eps: base.Params.Eps * f, MinPts: mp})
		}
	}
	return out, nil
}
