package rtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vdbscan/internal/geom"
	"vdbscan/internal/grid"
)

func randPts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

// runCandidates is the linear-scan oracle of SearchCandidates: every
// index of every run of r consecutive points whose bounding box meets q,
// in run order. A bulk-loaded tree's leaf entries are exactly those runs,
// and an interior box covers its children's, so the tree must reproduce
// this stream element for element.
func runCandidates(pts []geom.Point, r int, q geom.MBB) []int32 {
	var out []int32
	for start := 0; start < len(pts); start += r {
		end := min(start+r, len(pts))
		if geom.MBBOfPoints(pts[start:end]).Intersects(q) {
			for i := start; i < end; i++ {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFlatMatchesTreeSearch checks a bulk-loaded tree's shape and its
// candidate stream against a linear scan over the leaf runs — same
// candidates, same order — at several sizes, r and fanout values.
func TestFlatMatchesTreeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 5, 100, 3000} {
		for _, r := range []int{1, 7, 70} {
			for _, fanout := range []int{2, 4, 16} {
				sorted, _, _, _ := grid.Sort(randPts(rng, n), 1)
				fl := BulkLoad(sorted, nil, nil, Options{R: r, Fanout: fanout})
				if err := checkFlat(fl); err != nil {
					t.Fatalf("n=%d r=%d fanout=%d: %v", n, r, fanout, err)
				}
				leaves, height := (n+r-1)/r, 1
				for nodes := (leaves + fanout - 1) / fanout; nodes > 1; nodes = (nodes + fanout - 1) / fanout {
					height++
				}
				if s := fl.Stats(); s.LeafEntries != leaves || s.Height != height || s.Points != n || s.R != r {
					t.Fatalf("n=%d r=%d fanout=%d: stats %+v, want %d leaf entries, height %d",
						n, r, fanout, s, leaves, height)
				}
				for trial := 0; trial < 30; trial++ {
					q := geom.QueryMBB(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
						rng.Float64()*10)
					got, nodes := fl.SearchCandidates(q, nil)
					if want := runCandidates(sorted, r, q); !equalIDs(got, want) {
						t.Fatalf("n=%d r=%d fanout=%d: candidates %v, want %v", n, r, fanout, got, want)
					}
					if nodes < 1 || nodes > fl.Stats().Nodes {
						t.Fatalf("n=%d r=%d fanout=%d: %d nodes visited of %d", n, r, fanout, nodes, fl.Stats().Nodes)
					}
				}
			}
		}
	}
}

// TestFlatSearchCandidatesIdentical checks element-for-element equality of
// the candidate stream with the leaf-run oracle, including order — the
// property the byte-identical clustering guarantee rests on.
func TestFlatSearchCandidatesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sorted, _, _, _ := grid.Sort(randPts(rng, 5000), 1)
	for _, r := range []int{1, 70, 110} {
		fl := BulkLoad(sorted, nil, nil, Options{R: r})
		for trial := 0; trial < 50; trial++ {
			q := geom.QueryMBB(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
				rng.Float64()*8)
			got, _ := fl.SearchCandidates(q, nil)
			if want := runCandidates(sorted, r, q); !equalIDs(got, want) {
				t.Fatalf("r=%d: %d candidates, want %d (or order differs)", r, len(got), len(want))
			}
		}
	}
}

// TestFlatEpsSearchOracle checks EpsSearch against a linear-scan oracle:
// the fused search must return exactly the points within eps, in ascending
// leaf-run order, and examine exactly the leaf-run candidates.
func TestFlatEpsSearchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sorted, _, _, _ := grid.Sort(randPts(rng, 4000), 1)
	for _, r := range []int{1, 35, 70} {
		fl := BulkLoad(sorted, nil, nil, Options{R: r})
		var dst []int32
		for trial := 0; trial < 50; trial++ {
			p := geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			eps := rng.Float64()*5 + 0.01
			var cand int
			dst, cand, _ = fl.EpsSearch(p, eps, dst[:0])

			epsSq := eps * eps
			runs := runCandidates(sorted, r, geom.QueryMBB(p, eps))
			if cand != len(runs) {
				t.Fatalf("r=%d: examined %d candidates, leaf runs hold %d", r, cand, len(runs))
			}
			var want []int32
			for i, q := range sorted {
				if p.DistSq(q) <= epsSq {
					want = append(want, int32(i))
				}
			}
			if !equalIDs(dst, want) {
				t.Fatalf("r=%d: EpsSearch %v, full scan %v", r, dst, want)
			}
		}
	}
}

// TestFlatSharedCoords checks that BulkLoad shares the caller's SoA
// slices rather than copying.
func TestFlatSharedCoords(t *testing.T) {
	sorted, _, _, _ := grid.Sort(randPts(rand.New(rand.NewSource(1)), 100), 1)
	x := make([]float64, len(sorted))
	y := make([]float64, len(sorted))
	for i, p := range sorted {
		x[i], y[i] = p.X, p.Y
	}
	low := BulkLoad(sorted, x, y, Options{R: 10})
	high := BulkLoad(sorted, x, y, Options{R: 1})
	lx, _ := low.Coords()
	hx, _ := high.Coords()
	if &lx[0] != &x[0] || &hx[0] != &x[0] {
		t.Fatal("BulkLoad did not share the provided coordinate slices")
	}
}

// TestCheckCompactBounds pins the int32 guard BulkLoad applies before
// packing: sizes up to math.MaxInt32 pass, one past it fails.
func TestCheckCompactBounds(t *testing.T) {
	if err := checkCompactBounds(100, 100); err != nil {
		t.Fatalf("small tree rejected: %v", err)
	}
	if err := checkCompactBounds(math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("exactly MaxInt32 rejected: %v", err)
	}
	big := int(math.MaxInt32) + 1
	if big < 0 {
		t.Skip("32-bit int platform cannot represent the overflowing count")
	}
	if err := checkCompactBounds(big, 100); err == nil {
		t.Fatal("entry count past MaxInt32 accepted")
	}
	if err := checkCompactBounds(100, big); err == nil {
		t.Fatal("point count past MaxInt32 accepted")
	}
}

// Property: the candidate stream equals the leaf-run oracle for arbitrary
// quick-generated point sets, r, fanout, and query boxes.
func TestQuickFlatEquivalence(t *testing.T) {
	f := func(raw []float64, qx, qy, qr float64, rSel, fanoutSel uint8) bool {
		pts := normPts(raw)
		if math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(qr) {
			return true
		}
		sorted, _, _, _ := grid.Sort(pts, 1)
		r := int(rSel)%120 + 1
		fl := BulkLoad(sorted, nil, nil, Options{R: r, Fanout: int(fanoutSel)%14 + 2})
		q := geom.QueryMBB(geom.Point{X: math.Mod(math.Abs(qx), 100), Y: math.Mod(math.Abs(qy), 100)},
			math.Mod(math.Abs(qr), 20))
		got, _ := fl.SearchCandidates(q, nil)
		return equalIDs(got, runCandidates(sorted, r, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
