package rtree

import (
	"math"
	"testing"
	"testing/quick"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

// normPts converts raw quick-generated floats into a bounded point set.
func normPts(raw []float64) []geom.Point {
	pts := make([]geom.Point, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		x, y := raw[i], raw[i+1]
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			continue
		}
		pts = append(pts, geom.Point{
			X: math.Mod(math.Abs(x), 100),
			Y: math.Mod(math.Abs(y), 100),
		})
	}
	return pts
}

// Property: for any point set and any query box, the candidate set of a
// bulk-loaded tree contains every point inside the box, at every r.
func TestQuickCandidatesSuperset(t *testing.T) {
	f := func(raw []float64, qx, qy, qr float64, rSel uint8) bool {
		pts := normPts(raw)
		if len(pts) == 0 {
			return true
		}
		if math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(qr) {
			return true
		}
		r := int(rSel)%64 + 1
		sorted, _, _, _ := grid.Sort(pts, 1)
		tr := BulkLoad(sorted, nil, nil, Options{R: r})
		q := geom.QueryMBB(geom.Point{X: math.Mod(math.Abs(qx), 100), Y: math.Mod(math.Abs(qy), 100)},
			math.Mod(math.Abs(qr), 20))
		got := map[int32]bool{}
		for _, idx := range candidates(tr, q) {
			got[idx] = true
		}
		for i, p := range sorted {
			if q.ContainsPoint(p) && !got[int32(i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: bulk loading never loses or duplicates points — the union of
// all leaf ranges covers exactly 0..n-1.
func TestQuickBulkLeafCoverage(t *testing.T) {
	f := func(raw []float64, rSel uint8) bool {
		pts := normPts(raw)
		sorted, _, _, _ := grid.Sort(pts, 1)
		tr := BulkLoad(sorted, nil, nil, Options{R: int(rSel)%200 + 1})
		huge := geom.MBB{MinX: -1e9, MinY: -1e9, MaxX: 1e9, MaxY: 1e9}
		got := candidates(tr, huge)
		if len(got) != len(sorted) {
			return false
		}
		for i, idx := range got {
			if idx != int32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
