package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50},
		{40, 75},   // 30th of 40: ten beyond
		{99, 75},   // p90 is the 90th of 99: nine beyond
		{100, 90},  // 90th of 100: ten beyond
		{199, 90},  // p95 is the 190th of 199: nine beyond
		{200, 95},  // 190th of 200
		{999, 95},  // p99 is the 990th of 999: nine beyond
		{1000, 99}, // 990th of 1000
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {91, 100}, {100, 100}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are that function's outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdictFollowsTheGuideRule(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	mk := func(v ...float64) summary { return summarize("ms", v) }
	for _, c := range []struct {
		name string
		a, b summary
		want string
	}{
		{"every run better, but three pairs claim nothing", mk(100, 101, 102), mk(90, 91, 92), "within bound"},
		{"ten pairs, all won, medians apart by more than the parent's quartiles",
			mk(100, 101, 102, 100, 101, 102, 100, 101, 102, 100), mk(90, 91, 92, 90, 91, 92, 90, 91, 92, 90), "improved"},
		{"ten pairs, eight won", mk(100, 101, 102, 100, 101, 102, 100, 101, 102, 100), mk(90, 91, 92, 90, 91, 92, 90, 91, 103, 101), "within bound"},
		{"ten pairs won by less than the parent's quartiles", mk(100, 110, 120, 100, 110, 120, 100, 110, 120, 105), mk(99, 109, 119, 99, 109, 119, 99, 109, 119, 104), "unresolved"},
		{"worse beyond the bound", mk(100, 101, 102), mk(120, 121, 122), "regressed"},
		{"inside the bound", mk(100, 101, 102), mk(104, 103, 105), "within bound"},
		{"parent spreads wider than the bound", mk(80, 100, 130), mk(125, 120, 131), "unresolved"},
		{"parent spreads wider than the bound, yet every run of the change is behind all of it", mk(80, 100, 130), mk(300, 310, 290), "regressed"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	exact := metricDef{Name: "disk_bytes_per_point", Better: "lower", Bound: 0}
	if got := verdict(exact, mk(84, 84, 84), mk(84.5, 84.5, 84.5)); got != "regressed" {
		t.Errorf("a bound of 0: any increase regresses, got %q", got)
	}
	if got := verdict(exact, mk(84, 84, 84), mk(84, 84, 84)); got != "within bound" {
		t.Errorf("a bound of 0, no change: got %q", got)
	}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(higher, mk(100, 101, 102), mk(80, 81, 82)); got != "regressed" {
		t.Errorf("lower throughput: verdict = %q, want regressed", got)
	}
}
