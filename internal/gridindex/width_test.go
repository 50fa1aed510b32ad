package gridindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdbscan/internal/geom"
)

// freezeOracle is the one-worker Freeze the parallel build replaced: one
// bounds pass, one counting pass, one prefix sum and one scatter over the
// points in index order.
func freezeOracle(x, y []float64, side float64) (*Flat, error) {
	n := len(x)
	b := geom.EmptyMBB()
	for i := 0; i < n; i++ {
		if geom.Finite(x[i], y[i]) {
			b = b.ExtendPoint(geom.Point{X: x[i], Y: y[i]})
		}
	}
	f := &Flat{side: side}
	if !b.IsEmpty() {
		cols, rows, side, err := gridShape(b, side)
		if err != nil {
			return nil, err
		}
		f.side, f.originX, f.originY = side, b.MinX, b.MinY
		f.cols, f.rows = int32(cols), int32(rows)
	}
	cells := int(f.cols) * int(f.rows)
	cellOf := make([]int32, n)
	f.cellStart = make([]int32, cells+1)
	for i := 0; i < n; i++ {
		c := int32(cells)
		if geom.Finite(x[i], y[i]) {
			col := min(int(cellOffset(x[i], f.originX, f.side)), int(f.cols)-1)
			row := min(int(cellOffset(y[i], f.originY, f.side)), int(f.rows)-1)
			c = int32(row*int(f.cols) + col)
			f.cellStart[c+1]++
		}
		cellOf[i] = c
	}
	for c := 0; c < cells; c++ {
		f.cellStart[c+1] += f.cellStart[c]
	}
	f.xs = make([]float64, n)
	f.ys = make([]float64, n)
	f.ids = make([]int32, n)
	next := append([]int32(nil), f.cellStart...)
	for i := 0; i < n; i++ {
		c := cellOf[i]
		s := next[c]
		next[c] = s + 1
		f.xs[s] = x[i]
		f.ys[s] = y[i]
		f.ids[s] = int32(i)
	}
	return f, nil
}

func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// TestFreezeWidthsMatchOracle: the freeze's passes cut the points into one
// range per worker (at most one per (cells+1)/4 points); every array must
// be the one-worker oracle's at every width: with unplaced points, with
// signed zeros on the minimum corner, and on a grid coarsened to MaxCells,
// where the cap leaves one worker.
func TestFreezeWidthsMatchOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	type input struct {
		name string
		x, y []float64
	}
	var inputs []input
	for _, n := range []int{0, 1, 255, 257, 70_000} {
		for _, nonFinite := range []bool{false, true} {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = rnd.Float64()*100-20, rnd.Float64()*60
				if i%3 == 0 && i > 0 {
					x[i], y[i] = x[i-1], y[i-1] // duplicates share a cell
				}
				if nonFinite && rnd.Intn(6) == 0 {
					x[i], y[i] = []float64{inf, -inf, math.NaN()}[rnd.Intn(3)], 1
				}
			}
			inputs = append(inputs, input{fmt.Sprintf("n=%d/nonfinite=%v", n, nonFinite), x, y})
		}
	}
	zx, zy := make([]float64, 300), make([]float64, 300)
	for i := range zx {
		zx[i] = []float64{0, negZero, 1, 2}[rnd.Intn(4)]
		zy[i] = []float64{0, negZero, 3}[rnd.Intn(3)]
	}
	inputs = append(inputs, input{"signed-zeros", zx, zy})
	for _, in := range inputs {
		for _, side := range []float64{0.7, 2, 30, 1e-5} {
			want, err := freezeOracle(in.x, in.y, side)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/side=%g/w=%d", in.name, side, w), func(t *testing.T) {
					got, err := freezeWidth(in.x, in.y, side, w)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(bits([]float64{got.side, got.originX, got.originY}), bits([]float64{want.side, want.originX, want.originY})) ||
						got.cols != want.cols || got.rows != want.rows {
						t.Fatalf("geometry %v %v %v %d×%d, oracle %v %v %v %d×%d", got.side, got.originX, got.originY, got.cols, got.rows,
							want.side, want.originX, want.originY, want.cols, want.rows)
					}
					if !slices.Equal(got.cellStart, want.cellStart) || !slices.Equal(got.ids, want.ids) ||
						!slices.Equal(bits(got.xs), bits(want.xs)) || !slices.Equal(bits(got.ys), bits(want.ys)) {
						t.Fatal("arrays differ from the oracle's")
					}
				})
			}
		}
	}
}

// TestFreezeCellIDsAscending pins what cell-major DBSCAN's mark pass
// relies on to attach a dense cell's points under its first slot: the
// scatter is stable, so at every freeze width a cell's SlotIDs are strictly
// ascending and its first slot holds its minimum id.
func TestFreezeCellIDsAscending(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	const n = 70_000
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rnd.NormFloat64()*10, rnd.NormFloat64()*6
		if rnd.Intn(500) == 0 {
			x[i] = math.NaN()
		}
	}
	for _, side := range []float64{0.3, 2} {
		for _, w := range []int{1, 2, 3, 8} {
			f, err := freezeWidth(x, y, side, w)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c+1 < len(f.cellStart); c++ {
				for s := f.cellStart[c] + 1; s < f.cellStart[c+1]; s++ {
					if f.SlotID(s-1) >= f.SlotID(s) {
						t.Fatalf("side=%g w=%d cell %d: slot %d holds id %d after %d", side, w, c, s, f.SlotID(s), f.SlotID(s-1))
					}
				}
			}
		}
	}
}
