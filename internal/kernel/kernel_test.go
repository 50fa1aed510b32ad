package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracle is the straightforward scalar filter every kernel must match
// exactly (same indices, same order).
func oracle(dst []int32, xs, ys []float64, base int32, px, py, epsSq float64) []int32 {
	for i := range xs {
		dx := px - xs[i]
		dy := py - ys[i]
		if dx*dx+dy*dy <= epsSq {
			dst = append(dst, base+int32(i))
		}
	}
	return dst
}

func randRun(rng *rand.Rand, n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = rng.Float64() * 10
	}
	return xs, ys
}

func TestFilterEpsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB10C))
	// Sweep run lengths across block boundaries (0..3·Block+1) and larger
	// runs, with ε chosen so pass rates span sparse to dense.
	lengths := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 100, 1000}
	for _, n := range lengths {
		xs, ys := randRun(rng, n)
		for _, eps := range []float64{0.1, 1, 3, 20} {
			px, py := rng.Float64()*10, rng.Float64()*10
			epsSq := eps * eps
			want := oracle(nil, xs, ys, 5, px, py, epsSq)
			got := FilterEps(nil, xs, ys, 5, px, py, epsSq)
			if len(got) != len(want) {
				t.Fatalf("n=%d eps=%g: %d hits, want %d", n, eps, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d eps=%g: hit[%d]=%d, want %d", n, eps, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFilterEpsAppendsAfterExisting(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ys := make([]float64, len(xs))
	dst := []int32{-7, -8}
	out := FilterEps(dst, xs, ys, 100, 0, 0, 4.1)
	want := []int32{-7, -8, 100, 101, 102}
	if len(out) != len(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestFilterEpsNaNNeverPasses(t *testing.T) {
	nan := math.NaN()
	xs := []float64{0, nan, 0, nan, 0, nan, 0, nan, 0}
	ys := []float64{0, 0, nan, nan, 0, 0, nan, nan, 0}
	out := FilterEps(nil, xs, ys, 0, 0, 0, 1)
	if len(out) != 3 || out[0] != 0 || out[1] != 4 || out[2] != 8 {
		t.Fatalf("NaN handling: got %v", out)
	}
}

func TestFilterEpsIDsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1D5))
	for _, n := range []int{0, 1, 8, 13, 64, 257} {
		xs, ys := randRun(rng, n)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(rng.Intn(1 << 20))
		}
		px, py, epsSq := rng.Float64()*10, rng.Float64()*10, 2.5
		want := []int32{}
		for i := range xs {
			dx, dy := px-xs[i], py-ys[i]
			if dx*dx+dy*dy <= epsSq {
				want = append(want, ids[i])
			}
		}
		got := FilterEpsIDs(nil, xs, ys, ids, px, py, epsSq)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d hits, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: hit[%d]=%d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

// TestFilterEpsZeroAlloc asserts the kernels never touch the heap once the
// destination buffer has warmed to its high-water mark — the property the
// whole ε-search stack's zero-allocation guarantee rests on.
func TestFilterEpsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ys := randRun(rng, 4096)
	ids := make([]int32, len(xs))
	for i := range ids {
		ids[i] = int32(i)
	}
	dst := make([]int32, 0, len(xs))
	allocs := testing.AllocsPerRun(100, func() {
		dst = FilterEps(dst[:0], xs, ys, 0, 5, 5, 4)
		dst = FilterEpsIDs(dst[:0], xs, ys, ids, 5, 5, 4)
	})
	if allocs != 0 {
		t.Fatalf("kernels allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkFilterEps compares the block kernel against the scalar
// per-point loop it replaced, across run lengths bracketing the r-per-MBB
// sweep (r = 16..256 points per leaf) and pass rates from sparse to dense.
func BenchmarkFilterEps(b *testing.B) {
	rng := rand.New(rand.NewSource(0xBE7C))
	for _, n := range []int{16, 70, 110, 256, 1024} {
		xs, ys := randRun(rng, n)
		for _, eps := range []float64{0.5, 2, 5} {
			epsSq := eps * eps
			b.Run(fmt.Sprintf("block/n=%d/eps=%g", n, eps), func(b *testing.B) {
				dst := make([]int32, 0, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = FilterEps(dst[:0], xs, ys, 0, 5, 5, epsSq)
				}
			})
			b.Run(fmt.Sprintf("scalar/n=%d/eps=%g", n, eps), func(b *testing.B) {
				dst := make([]int32, 0, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = dst[:0]
					for j := range xs {
						dx := 5 - xs[j]
						dy := 5 - ys[j]
						if dx*dx+dy*dy <= epsSq {
							dst = append(dst, int32(j))
						}
					}
				}
			})
		}
	}
}
