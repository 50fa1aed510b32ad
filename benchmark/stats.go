package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the two middle values for an even count); NaN when
// v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile picks the highest of the usual percentiles that still has
// at least ten samples beyond it in a sample of n, or 50 when none has: the
// highest percentile the sample supports.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9 % of 10000 is 9990, not 9990.000000000002
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first, second and third quartile of v by the same
// rule as Python's statistics.quantiles(v, n=4) (the "exclusive" method),
// which is what the driver uses for spreads. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// summary is the distribution record results.json keeps for one metric.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, v []float64) summary {
	s := sorted(v)
	q1, _, q3 := quartiles(v)
	return summary{Unit: unit, Median: median(v), Min: s[0], Max: s[len(s)-1], Q1: q1, Q3: q3, N: len(v), Values: v}
}
