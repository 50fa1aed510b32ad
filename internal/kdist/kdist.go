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
	"slices"
	"sort"

	"vdbscan/internal/dbscan"
	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
)

// DefaultMinPts is the paper-endorsed minpts for 2-D data.
const DefaultMinPts = 4

// Curve computes the descending sorted k-dist graph over the index: one
// entry per point holding the distance to its k-th nearest neighbor
// (excluding the point itself). k must be ≥ 1. Points with a non-finite
// coordinate, and points whose k-distance is not finite (a squared
// distance past the float64 range), have no place on the curve and are
// skipped; the neighbours are the finite points, and a point with fewer
// than k of them takes the farthest.
//
// Curve freezes its own cell grid over ix.X and ix.Y, sized to hold about
// k+1 points per cell, and answers each point's query with ε-searches
// whose radius starts at the cell side and doubles until the search holds
// k+1 points: every point within the radius is returned, so the (k+1)-th
// smallest distance among them, the point itself at rank 0, is exact.
func Curve(ix *dbscan.Index, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("kdist: k must be >= 1, got %d", k)
	}
	b, placed := geom.EmptyMBB(), 0
	for i := range ix.X {
		if geom.Finite(ix.X[i], ix.Y[i]) {
			b = b.ExtendPoint(geom.Point{X: ix.X[i], Y: ix.Y[i]})
			placed++
		}
	}
	if placed == 0 {
		return nil, nil
	}
	g, err := gridindex.Freeze(ix.X, ix.Y, cellSide(b, float64(k+1)/float64(placed)))
	if err != nil {
		return nil, fmt.Errorf("kdist: %w", err)
	}
	want := min(k+1, placed)
	dists := make([]float64, 0, placed)
	var found []int32
	var dsq []float64
	for i := range ix.X {
		p := geom.Point{X: ix.X[i], Y: ix.Y[i]}
		if !geom.Finite(p.X, p.Y) {
			continue
		}
		for r := g.Side(); ; r *= 2 {
			if found, _, _ = g.EpsSearch(p, r, found[:0]); len(found) >= want {
				break
			}
		}
		dsq = dsq[:0]
		for _, j := range found {
			dsq = append(dsq, p.DistSq(geom.Point{X: ix.X[j], Y: ix.Y[j]}))
		}
		slices.Sort(dsq)
		if d := math.Sqrt(dsq[want-1]); !math.IsInf(d, 1) {
			dists = append(dists, d)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dists)))
	return dists, nil
}

// cellSide returns the side of a square cell holding share of the points
// spread evenly over b: sqrt(area·share), or span·share along b's longer
// side when b has no area or its area overflows, or 1 when b is a point.
func cellSide(b geom.MBB, share float64) float64 {
	w, h := b.MaxX-b.MinX, b.MaxY-b.MinY
	side := math.Sqrt(w * h * share)
	if !(side > 0) || math.IsInf(side, 0) {
		side = math.Min(math.Max(w, h)*share, math.MaxFloat64)
	}
	if !(side > 0) {
		side = 1
	}
	return side
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
