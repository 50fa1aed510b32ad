package rtree_test

import (
	"math/rand"
	"strings"
	"testing"

	"vdbscan/internal/geom"
	"vdbscan/internal/rtree"
)

func partsPoints(n int, seed int64) []geom.Point {
	rnd := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * 100, Y: rnd.Float64() * 100}
	}
	return pts
}

// TestFlatPartsRoundTrip builds trees of several shapes, tears each into
// parts, rebuilds through FlatFromParts, and requires the rebuilt Flat to
// answer ε-searches identically to the original.
func TestFlatPartsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500, 5000} {
		for _, r := range []int{1, 4, 70} {
			pts := partsPoints(n, int64(n*100+r))
			f := rtree.BulkLoad(pts, nil, nil, rtree.Options{R: r})
			x, y := f.Coords()
			g, err := rtree.FlatFromParts(f.Parts(), x, y, f.Points())
			if err != nil {
				t.Fatalf("n=%d r=%d: FlatFromParts: %v", n, r, err)
			}
			if g.Stats() != f.Stats() {
				t.Fatalf("n=%d r=%d: stats diverge: %+v vs %+v", n, r, g.Stats(), f.Stats())
			}
			rnd := rand.New(rand.NewSource(int64(n + r)))
			for q := 0; q < 50; q++ {
				p := geom.Point{X: rnd.Float64() * 100, Y: rnd.Float64() * 100}
				eps := rnd.Float64() * 10
				want, wc, wn := f.EpsSearch(p, eps, nil)
				got, gc, gn := g.EpsSearch(p, eps, nil)
				if wc != gc || wn != gn || len(want) != len(got) {
					t.Fatalf("n=%d r=%d: search diverged: %d/%d/%d vs %d/%d/%d",
						n, r, len(want), wc, wn, len(got), gc, gn)
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("n=%d r=%d: result %d: %d vs %d", n, r, i, want[i], got[i])
					}
				}
			}
		}
	}
}

// TestFlatFromPartsRejects feeds structurally corrupt parts and requires a
// descriptive error, never a panic and never a Flat that could crash a
// search.
func TestFlatFromPartsRejects(t *testing.T) {
	pts := partsPoints(300, 42)
	f := rtree.BulkLoad(pts, nil, nil, rtree.Options{R: 4})
	x, y := f.Coords()

	cases := []struct {
		name string
		mut  func(p *rtree.FlatParts)
		want string
	}{
		{"entry length mismatch", func(p *rtree.FlatParts) { p.EntRef = p.EntRef[:len(p.EntRef)-1] }, "entry arrays"},
		{"empty node table", func(p *rtree.FlatParts) { p.NodeEnt = p.NodeEnt[:1] }, "node table"},
		{"range does not span", func(p *rtree.FlatParts) { p.NodeEnt[len(p.NodeEnt)-1]-- }, "span"},
		{"firstLeaf out of range", func(p *rtree.FlatParts) { p.FirstLeaf = int32(len(p.NodeEnt)) }, "firstLeaf"},
		{"size mismatch", func(p *rtree.FlatParts) { p.Size++ }, "points"},
		{"backward child ref", func(p *rtree.FlatParts) { p.EntRef[0] = 0 }, "forward"},
		{"out-of-table child ref", func(p *rtree.FlatParts) { p.EntRef[0] = int32(len(p.NodeEnt)) }, "forward"},
		{"leaf range overflow", func(p *rtree.FlatParts) {
			last := len(p.EntRef) - 1
			p.EntCnt[last] = int32(p.Size) // start+count > size
		}, "leaf entry"},
		{"negative leaf start", func(p *rtree.FlatParts) { p.EntRef[len(p.EntRef)-1] = -1 }, "leaf entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := f.Parts()
			// Deep-copy the mutable arrays so cases stay independent.
			parts.NodeEnt = append([]int32(nil), parts.NodeEnt...)
			parts.EntRef = append([]int32(nil), parts.EntRef...)
			parts.EntCnt = append([]int32(nil), parts.EntCnt...)
			tc.mut(&parts)
			_, err := rtree.FlatFromParts(parts, x, y, pts)
			if err == nil {
				t.Fatalf("corrupt parts accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFlatFromPartsRejectsDoubleRef builds a tiny fake two-level tree
// whose root references the same leaf twice — the cycle-ish shape a
// forward-only check alone would admit.
func TestFlatFromPartsRejectsDoubleRef(t *testing.T) {
	pts := partsPoints(2, 7)
	x := []float64{pts[0].X, pts[1].X}
	y := []float64{pts[0].Y, pts[1].Y}
	parts := rtree.FlatParts{
		EntMinX: []float64{0, 0, 0}, EntMinY: []float64{0, 0, 0},
		EntMaxX: []float64{100, 100, 100}, EntMaxY: []float64{100, 100, 100},
		EntRef: []int32{1, 1, 0}, EntCnt: []int32{0, 0, 2},
		NodeEnt:   []int32{0, 2, 3},
		FirstLeaf: 1,
		Height:    2, R: 2, Fanout: 16, Size: 2,
	}
	if _, err := rtree.FlatFromParts(parts, x, y, pts); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double reference accepted: %v", err)
	}
}
