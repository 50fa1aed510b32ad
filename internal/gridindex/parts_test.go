package gridindex_test

import (
	"math/rand"
	"strings"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/gridindex"
)

// TestGridPartsRoundTrip freezes grids of several shapes, tears each into
// parts, rebuilds via FlatFromParts, and requires identical ε-search
// results.
func TestGridPartsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 10, 100, 3000} {
		pts := blobs(5, n/5, n/10, 50, 1.5, int64(n))
		xs, ys := coords(pts)
		f, err := gridindex.Freeze(xs, ys, 2.0)
		if err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		g, err := gridindex.FlatFromParts(f.Parts())
		if err != nil {
			t.Fatalf("n=%d: FlatFromParts: %v", n, err)
		}
		if g.Stats() != f.Stats() {
			t.Fatalf("n=%d: stats diverge: %+v vs %+v", n, g.Stats(), f.Stats())
		}
		rnd := rand.New(rand.NewSource(int64(n)))
		for q := 0; q < 50; q++ {
			p := geom.Point{X: rnd.Float64() * 50, Y: rnd.Float64() * 50}
			eps := rnd.Float64() * 5
			want, wc, wn := f.EpsSearch(p, eps, nil)
			got, gc, gn := g.EpsSearch(p, eps, nil)
			if wc != gc || wn != gn || len(want) != len(got) {
				t.Fatalf("n=%d: search diverged: %d/%d/%d vs %d/%d/%d",
					n, len(want), wc, wn, len(got), gc, gn)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d: result %d: %d vs %d", n, i, want[i], got[i])
				}
			}
		}
	}
}

// TestGridFlatFromPartsRejects feeds structurally corrupt parts and
// requires a descriptive error, never a panic.
func TestGridFlatFromPartsRejects(t *testing.T) {
	pts := blobs(4, 50, 20, 30, 1, 9)
	xs, ys := coords(pts)
	f, err := gridindex.Freeze(xs, ys, 1.5)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	cases := []struct {
		name string
		mut  func(p *gridindex.FlatParts)
		want string
	}{
		{"length mismatch", func(p *gridindex.FlatParts) { p.IDs = p.IDs[:len(p.IDs)-1] }, "length"},
		{"negative shape", func(p *gridindex.FlatParts) { p.Cols = -1 }, "shape"},
		{"cellStart truncated", func(p *gridindex.FlatParts) { p.CellStart = p.CellStart[:len(p.CellStart)-1] }, "cellStart"},
		{"cellStart not spanning", func(p *gridindex.FlatParts) { p.CellStart[len(p.CellStart)-1]++ }, "prefix"},
		{"finite point unplaced", func(p *gridindex.FlatParts) {
			n := int32(len(p.IDs))
			for c := 1; c < len(p.CellStart); c++ {
				if p.CellStart[c] == n {
					p.CellStart[c]--
				}
			}
		}, "finite"},
		{"cellStart non-monotone", func(p *gridindex.FlatParts) {
			p.CellStart[1] = p.CellStart[len(p.CellStart)-1] + 1
		}, ""},
		{"id out of range", func(p *gridindex.FlatParts) { p.IDs[0] = int32(len(p.IDs)) }, "id"},
		{"negative id", func(p *gridindex.FlatParts) { p.IDs[0] = -1 }, "id"},
		{"bad side", func(p *gridindex.FlatParts) { p.Side = 0 }, "side"},
		{"nan origin", func(p *gridindex.FlatParts) { p.OriginX = nan() }, "origin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := f.Parts()
			parts.CellStart = append([]int32(nil), parts.CellStart...)
			parts.IDs = append([]int32(nil), parts.IDs...)
			tc.mut(&parts)
			_, err := gridindex.FlatFromParts(parts)
			if err == nil {
				t.Fatalf("corrupt parts accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func nan() float64 {
	var z float64
	return z / z
}
