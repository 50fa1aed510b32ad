// Package variant models the parameterized DBSCAN variants v_i = (ε_i,
// minpts_i) that VariantDBSCAN executes concurrently, together with the
// relations between them:
//
//   - the reuse inclusion criteria (§IV-B): v_i may reuse v_j iff
//     ε_i ≥ ε_j and minpts_i ≤ minpts_j, because a cluster can then only
//     grow;
//   - the canonical order (§IV-D): non-decreasing ε, then non-increasing
//     minpts;
//   - the normalized parameter distance the paper's SCHEDGREEDY minimizes
//     when it picks a reuse source.
package variant

import (
	"fmt"
	"sort"

	"vdbscan/internal/dbscan"
)

// Variant is one parameterized DBSCAN execution. ID is the variant's
// position in the caller's original V list, preserved across sorting so
// results can be reported in input order.
type Variant struct {
	ID     int
	Params dbscan.Params
}

// String implements fmt.Stringer.
func (v Variant) String() string {
	return fmt.Sprintf("v%d%s", v.ID, v.Params)
}

// CanReuse reports whether a variant with parameters vi may reuse the
// completed clustering of a variant with parameters vj (§IV-B): growing ε
// and/or shrinking minpts can only grow vj's clusters, so every point of a
// reused cluster is guaranteed to stay in that cluster.
func CanReuse(vi, vj dbscan.Params) bool {
	return vi.Eps >= vj.Eps && vi.MinPts <= vj.MinPts
}

// Sort orders variants canonically (§IV-D): v_i^ε ≤ v_{i+1}^ε, breaking ties
// by v_i^minpts ≥ v_{i+1}^minpts. The sort is stable with a final tie-break
// on ID so the order is deterministic even with duplicate parameters.
func Sort(vs []Variant) {
	sort.SliceStable(vs, func(a, b int) bool {
		va, vb := vs[a].Params, vs[b].Params
		if va.Eps != vb.Eps {
			return va.Eps < vb.Eps
		}
		if va.MinPts != vb.MinPts {
			return va.MinPts > vb.MinPts
		}
		return vs[a].ID < vs[b].ID
	})
}

// Sorted returns a canonically sorted copy of vs.
func Sorted(vs []Variant) []Variant {
	out := append([]Variant(nil), vs...)
	Sort(out)
	return out
}

// New assigns IDs 0..len-1 to a parameter list in its given order.
func New(params []dbscan.Params) []Variant {
	vs := make([]Variant, len(params))
	for i, p := range params {
		vs[i] = Variant{ID: i, Params: p}
	}
	return vs
}

// Product builds V = A × B (the paper's notation for the evaluation
// scenarios): every ε in A crossed with every minpts in B, in row-major
// order (A outer, B inner).
func Product(A []float64, B []int) []Variant {
	vs := make([]Variant, 0, len(A)*len(B))
	for _, eps := range A {
		for _, mp := range B {
			vs = append(vs, Variant{ID: len(vs), Params: dbscan.Params{Eps: eps, MinPts: mp}})
		}
	}
	return vs
}

// Validate checks every variant's parameters.
func Validate(vs []Variant) error {
	if len(vs) == 0 {
		return fmt.Errorf("variant: empty variant set")
	}
	for _, v := range vs {
		if err := v.Params.Validate(); err != nil {
			return fmt.Errorf("variant %d: %w", v.ID, err)
		}
	}
	return nil
}

// Normalizer computes the component-wise parameter distance SCHEDGREEDY
// minimizes when choosing a reuse source. The paper does not pin down the
// metric; we normalize each component by its spread across V so that ε
// (often fractional) and minpts (often tens) contribute comparably:
//
//	dist(a, b) = |a.ε − b.ε| / range(ε) + |a.minpts − b.minpts| / range(minpts)
//
// Degenerate ranges (all variants sharing one ε or one minpts) fall back to
// a unit divisor.
type Normalizer struct {
	epsRange    float64
	minptsRange float64
}

// NewNormalizer measures parameter spreads over vs.
func NewNormalizer(vs []Variant) Normalizer {
	if len(vs) == 0 {
		return Normalizer{epsRange: 1, minptsRange: 1}
	}
	minEps, maxEps := vs[0].Params.Eps, vs[0].Params.Eps
	minMp, maxMp := vs[0].Params.MinPts, vs[0].Params.MinPts
	for _, v := range vs[1:] {
		if v.Params.Eps < minEps {
			minEps = v.Params.Eps
		}
		if v.Params.Eps > maxEps {
			maxEps = v.Params.Eps
		}
		if v.Params.MinPts < minMp {
			minMp = v.Params.MinPts
		}
		if v.Params.MinPts > maxMp {
			maxMp = v.Params.MinPts
		}
	}
	n := Normalizer{epsRange: maxEps - minEps, minptsRange: float64(maxMp - minMp)}
	if n.epsRange <= 0 {
		n.epsRange = 1
	}
	if n.minptsRange <= 0 {
		n.minptsRange = 1
	}
	return n
}

// Dist returns the normalized component-wise difference between a and b.
func (n Normalizer) Dist(a, b dbscan.Params) float64 {
	de := a.Eps - b.Eps
	if de < 0 {
		de = -de
	}
	dm := float64(a.MinPts - b.MinPts)
	if dm < 0 {
		dm = -dm
	}
	return de/n.epsRange + dm/n.minptsRange
}
