package bench

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean([]float64{-1, 1}); got != 0 {
		t.Errorf("Mean = %g", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("degenerate StdDev should be 0")
	}
	// Known sample: {2, 4, 4, 4, 5, 5, 7, 9} has sample sd ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.13809) > 1e-4 {
		t.Errorf("StdDev = %g", got)
	}
	if StdDev([]float64{3, 3, 3}) != 0 {
		t.Error("constant sample sd should be 0")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("Median(nil)")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	// Median must not mutate the input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median mutated input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}

func TestQuickBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
