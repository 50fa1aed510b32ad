package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vdbscan/internal/geom"
)

// stableOracle is the comparison sort Sort replaced: sort.SliceStable
// over (row, col, y, x) with a closure comparator, on the keyer's bin keys.
// It defines the order only for finite points.
func stableOracle(pts []geom.Point, binWidth float64) []int {
	k, _ := newKeyer(pts, binWidth, 1)
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	keys := make([]binKey, len(pts))
	for i, p := range pts {
		keys[i] = k.key(p)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka[1] != kb[1] {
			return ka[1] < kb[1]
		}
		if ka[0] != kb[0] {
			return ka[0] < kb[0]
		}
		pa, pb := pts[order[a]], pts[order[b]]
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	return order
}

// checkAgainstOracle asserts that Sort puts the finite points of pts in
// the oracle's order over the finite points alone, follows them with the
// others in input order, and that sorted[j] is pts[fwd[j]] bit for bit.
func checkAgainstOracle(t *testing.T, pts []geom.Point, binWidth float64) {
	t.Helper()
	sorted, fwd, x, y := Sort(pts, binWidth)
	checkSorted(t, pts, binWidth, sorted, fwd, x, y)
}

// checkSorted is checkAgainstOracle's assertion on one result of Sort, or
// of sortWidth at some width; x[j] and y[j] must be sorted[j]'s
// coordinates bit for bit too.
func checkSorted(t *testing.T, pts []geom.Point, binWidth float64, sorted []geom.Point, fwd []int, x, y []float64) {
	t.Helper()
	var finitePts []geom.Point
	var finiteIdx, want []int
	for i, p := range pts {
		if geom.Finite(p.X, p.Y) {
			finitePts = append(finitePts, p)
			finiteIdx = append(finiteIdx, i)
		}
	}
	for _, j := range stableOracle(finitePts, binWidth) {
		want = append(want, finiteIdx[j])
	}
	for i, p := range pts {
		if !geom.Finite(p.X, p.Y) {
			want = append(want, i)
		}
	}
	if !slices.Equal(fwd, want) {
		for j := range want {
			if fwd[j] != want[j] {
				t.Fatalf("n=%d width=%g: fwd[%d] = %d (%v), oracle has %d (%v)", len(pts), binWidth, j, fwd[j], pts[fwd[j]], want[j], pts[want[j]])
			}
		}
		t.Fatalf("n=%d width=%g: fwd has length %d, want %d", len(pts), binWidth, len(fwd), len(want))
	}
	for j, i := range fwd {
		if math.Float64bits(sorted[j].X) != math.Float64bits(pts[i].X) || math.Float64bits(sorted[j].Y) != math.Float64bits(pts[i].Y) {
			t.Fatalf("sorted[%d] = %v is not pts[%d] = %v", j, sorted[j], i, pts[i])
		}
		if math.Float64bits(x[j]) != math.Float64bits(pts[i].X) || math.Float64bits(y[j]) != math.Float64bits(pts[i].Y) {
			t.Fatalf("(x, y)[%d] = (%v, %v) is not pts[%d] = %v", j, x[j], y[j], i, pts[i])
		}
	}
}

func uniformPoints(rnd *rand.Rand, n int, x0, y0, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + rnd.Float64()*span, Y: y0 + rnd.Float64()*span}
	}
	return pts
}

func TestSortMatchesStableOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 70_000} {
		t.Run(fmt.Sprintf("uniform/n=%d", n), func(t *testing.T) {
			checkAgainstOracle(t, uniformPoints(rnd, n, 0, 0, 300), 1)
		})
		t.Run(fmt.Sprintf("duplicates/n=%d", n), func(t *testing.T) {
			distinct := uniformPoints(rnd, 7, 0, 0, 3)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = distinct[rnd.Intn(len(distinct))]
			}
			checkAgainstOracle(t, pts, 1)
		})
		t.Run(fmt.Sprintf("signed-zeros/n=%d", n), func(t *testing.T) {
			vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5}
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: vals[rnd.Intn(len(vals))], Y: vals[rnd.Intn(len(vals))]}
			}
			checkAgainstOracle(t, pts, 1)
		})
		t.Run(fmt.Sprintf("one-bin/n=%d", n), func(t *testing.T) {
			checkAgainstOracle(t, uniformPoints(rnd, n, 0, 0, 1), 1)
		})
		t.Run(fmt.Sprintf("negative/n=%d", n), func(t *testing.T) {
			checkAgainstOracle(t, uniformPoints(rnd, n, -5000, -1e6, 1200), 1)
		})
	}
	for _, w := range []float64{1e-3, 1e-2, 0.1, 0.7, 1, 3, 10, 100, 1e3} {
		t.Run(fmt.Sprintf("width=%g", w), func(t *testing.T) {
			checkAgainstOracle(t, uniformPoints(rnd, 20_000, -40, 17, 400), w)
		})
	}
	// Bin indices around 2^63, where keys saturate, and spans whose
	// differences overflow to +Inf.
	for _, span := range []float64{0x1p62, 0x1p63, 0x1p64, math.MaxFloat64} {
		t.Run(fmt.Sprintf("clamp/span=%g", span), func(t *testing.T) {
			pts := uniformPoints(rnd, 3000, -span/2, -span/2, span)
			for i := 0; i < 300; i++ {
				pts[rnd.Intn(len(pts))] = pts[rnd.Intn(len(pts))]
			}
			if span == math.MaxFloat64 {
				pts = append(pts, geom.Point{X: -span, Y: 0}, geom.Point{X: span, Y: -span})
			}
			checkAgainstOracle(t, pts, 1)
			checkAgainstOracle(t, pts, 1e-3)
		})
	}
}

// TestSortWidthsMatchOracle: the sort's passes cut their input into one
// range per worker; the bytes must be the stable oracle's at every width,
// whether a cut falls inside a run of equal keys, ranges hold no finite
// point or the keys saturate.
func TestSortWidthsMatchOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	inf := math.Inf(1)
	odd := []geom.Point{{X: -inf, Y: 3}, {X: 10, Y: math.NaN()}, {X: inf, Y: -inf}, {X: math.NaN(), Y: math.NaN()}}
	cases := map[string]func(n int) []geom.Point{
		"uniform": func(n int) []geom.Point { return uniformPoints(rnd, n, -3, 5, 300) },
		"duplicates": func(n int) []geom.Point {
			distinct := uniformPoints(rnd, 7, 0, 0, 3)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = distinct[rnd.Intn(len(distinct))]
			}
			return pts
		},
		"non-finite": func(n int) []geom.Point {
			pts := uniformPoints(rnd, n, 0, 0, 40)
			for i := range pts {
				if rnd.Intn(5) == 0 {
					pts[i] = odd[rnd.Intn(len(odd))]
				}
			}
			return pts
		},
		"saturating": func(n int) []geom.Point {
			pts := uniformPoints(rnd, n, -math.MaxFloat64/2, -0x1p63, math.MaxFloat64)
			if n > 0 {
				pts[n/2] = geom.Point{X: -math.MaxFloat64, Y: math.MaxFloat64}
			}
			return pts
		},
	}
	for _, name := range []string{"uniform", "duplicates", "non-finite", "saturating"} {
		for _, n := range []int{0, 1, 255, 257, 70_000} {
			pts := cases[name](n)
			for _, w := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/n=%d/w=%d", name, n, w), func(t *testing.T) {
					sorted, fwd, x, y := sortWidth(pts, 1, w)
					checkSorted(t, pts, 1, sorted, fwd, x, y)
				})
			}
		}
	}
}

// TestSortNonFiniteLast: points with a NaN or infinite coordinate neither
// move the bins nor disturb the finite points' order; they come last, in
// input order. One point at x = -Inf must not turn every finite column
// into an out-of-range float→int conversion.
func TestSortNonFiniteLast(t *testing.T) {
	inf := math.Inf(1)
	finitePts := uniformPoints(rand.New(rand.NewSource(8)), 1000, 0, 0, 50)
	_, want, _, _ := Sort(finitePts, 1)
	odd := []geom.Point{{X: -inf, Y: 3}, {X: 10, Y: math.NaN()}, {X: inf, Y: -inf}, {X: math.NaN(), Y: math.NaN()}, {X: 4, Y: inf}}
	pts := append(slices.Clip(finitePts), odd...)
	_, fwd, _, _ := Sort(pts, 1)
	if !slices.Equal(fwd[:len(finitePts)], want) {
		t.Fatal("appending non-finite points reordered the finite ones")
	}
	kr, _ := newKeyer(pts, 1, 1)
	kr0, _ := newKeyer(finitePts, 1, 1)
	if k, k0 := kr.key(geom.Point{X: 10, Y: 10}), kr0.key(geom.Point{X: 10, Y: 10}); k != k0 {
		t.Fatalf("key(10, 10) = %v with non-finite points, %v without", k, k0)
	}
	checkAgainstOracle(t, pts, 1)
	// Interleaved rather than appended: the same finite order, then the
	// non-finite points in input order.
	mixed := slices.Insert(slices.Clone(finitePts), 500, odd...)
	checkAgainstOracle(t, mixed, 1)
}

// TestBinIndexSaturates: bin indices out of int64's range saturate, NaN
// to the top, instead of relying on an implementation-defined conversion.
func TestBinIndexSaturates(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want int64
	}{
		{0x1p63 - 1024, 1<<63 - 1024},
		{0x1p63, math.MaxInt64},
		{math.Inf(1), math.MaxInt64},
		{math.NaN(), math.MaxInt64},
		{-0x1p63, math.MinInt64},
		{-0x1p64, math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{-0.5, -1},
		{math.Copysign(0, -1), 0},
	} {
		if got := binIndex(c.f); got != c.want {
			t.Errorf("binIndex(%g) = %d, want %d", c.f, got, c.want)
		}
	}
}

// FuzzSort checks Sort against the stable oracle. Each input byte pair is
// a point: 0x7f, 0x80 and 0x81 stand for +Inf, -Inf and NaN, any other
// byte b for offset + int8(b)·scale.
func FuzzSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 0, 0}, 0.5, 0.0, 1.0)
	f.Add([]byte{0x80, 3, 10, 10, 250, 9, 0x81, 0}, 1.0, -3.0, 1.0)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, -1.0, math.Copysign(0, -1), 1.0)
	f.Add([]byte{5, 200, 17, 17, 100, 3}, 1e300, 0.0, 1e-3)
	f.Add([]byte{1, 2, 3, 4}, 0x1p54, -1e18, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, scale, offset, binWidth float64) {
		if !(binWidth > 0) {
			return
		}
		coord := func(b byte) float64 {
			switch b {
			case 0x7f:
				return math.Inf(1)
			case 0x80:
				return math.Inf(-1)
			case 0x81:
				return math.NaN()
			}
			return offset + float64(int8(b))*scale
		}
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			pts[i] = geom.Point{X: coord(data[2*i]), Y: coord(data[2*i+1])}
		}
		checkAgainstOracle(t, pts, binWidth)
		sorted, fwd, x, y := sortWidth(pts, binWidth, 3)
		checkSorted(t, pts, binWidth, sorted, fwd, x, y)
	})
}
