package gridindex

import (
	"errors"
	"math"
	"testing"

	"vdbscan/internal/geom"
)

// TestGridShapeBoundaries drives gridShape across the degenerate extents
// the coarsening loop must survive: it must terminate on every input and
// either land at ≤ MaxCells or return ErrGridTooLarge — never spin, never
// overflow into a bogus shape.
func TestGridShapeBoundaries(t *testing.T) {
	box := func(w, h float64) geom.MBB { return geom.MBB{MinX: 0, MinY: 0, MaxX: w, MaxY: h} }
	cases := []struct {
		name    string
		b       geom.MBB
		side    float64
		wantErr bool
	}{
		{"zero span", box(0, 0), 1, false},
		{"tiny span huge side", box(1e-300, 1e-300), 1e300, false},
		{"huge span tiny side", box(1e300, 1e300), 1e-300, false},
		{"huge span denormal side", box(1e308, 1e308), 5e-324, false},
		{"max finite span", box(math.MaxFloat64, math.MaxFloat64), 1, false},
		{"asymmetric huge", box(1e307, 1e-307), 1e-310, false},
		{"denormal span denormal side", box(5e-324, 5e-324), 5e-324, false},
		{"span overflows to inf", geom.MBB{MinX: -math.MaxFloat64, MinY: 0, MaxX: math.MaxFloat64, MaxY: 1}, 1, false},
		{"span overflows on both axes", geom.MBB{MinX: -1e308, MinY: -1.7e308, MaxX: 1e308, MaxY: 1.7e308}, 5e-324, false},
		{"infinite bound", geom.MBB{MinX: math.Inf(-1), MinY: 0, MaxX: 1, MaxY: 1}, 1, true},
		{"nan span", geom.MBB{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}, 1, true},
		{"negative span", geom.MBB{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols, rows, side, err := gridShape(tc.b, tc.side)
			if tc.wantErr {
				if !errors.Is(err, ErrGridTooLarge) {
					t.Fatalf("want ErrGridTooLarge, got cols=%d rows=%d side=%g err=%v", cols, rows, side, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("gridShape: %v", err)
			}
			if cols < 1 || rows < 1 || int64(cols)*int64(rows) > MaxCells {
				t.Fatalf("bad shape %dx%d", cols, rows)
			}
			if !(side > 0) || math.IsInf(side, 0) || math.IsNaN(side) {
				t.Fatalf("bad side %g", side)
			}
			if side < tc.side {
				t.Fatalf("side shrank: %g < %g", side, tc.side)
			}
			// The landed geometry must actually cover the extent: the last
			// cell's far edge reaches past the span on both axes (compared
			// at half scale, where a span wider than the float range fits).
			if float64(cols)*side*0.5 < tc.b.MaxX*0.5-tc.b.MinX*0.5 || float64(rows)*side*0.5 < tc.b.MaxY*0.5-tc.b.MinY*0.5 {
				t.Fatalf("%dx%d cells of side %g do not cover %gx%g",
					cols, rows, side, tc.b.MaxX-tc.b.MinX, tc.b.MaxY-tc.b.MinY)
			}
		})
	}
}

// TestGridShapeBadSide pins the side-argument contract.
func TestGridShapeBadSide(t *testing.T) {
	b := geom.MBB{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	for _, side := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, _, _, err := gridShape(b, side); err == nil {
			t.Fatalf("side %g accepted", side)
		}
	}
}

// TestGridShapeCoarsens pins the normal coarsening path: a side far below
// the span must still land within MaxCells without hitting the fallback's
// 2×2 floor when a finer legal geometry exists.
func TestGridShapeCoarsens(t *testing.T) {
	b := geom.MBB{MinX: 0, MinY: 0, MaxX: 1e6, MaxY: 1e6}
	cols, rows, side, err := gridShape(b, 1e-3)
	if err != nil {
		t.Fatalf("gridShape: %v", err)
	}
	cells := int64(cols) * int64(rows)
	if cells > MaxCells || cells < MaxCells/8 {
		t.Fatalf("coarsening landed far from the cap: %dx%d = %d cells (cap %d)", cols, rows, cells, MaxCells)
	}
	if side <= 1e-3 {
		t.Fatalf("side did not coarsen: %g", side)
	}
}
