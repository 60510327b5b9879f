package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: below that, the percentile is an anecdote, not a
// measurement.
const minTail = 10

// tailQuantile returns the quantile the tail latency is reported at for
// n samples: 0.99, or the highest quantile that still leaves at least
// minTail samples beyond it, never below the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minTail)/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of sorted values
// (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps q = 1-k/n, computed in floating point, from
	// rounding up past the rank it names.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist summarizes a latency sample: its count, median (interpolated, so
// it moves smoothly when the sample is a mix of a few distinct
// operations) and tail at the quantile tailQuantile picks for the
// count.
type dist struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64
	Max   float64
}

func summarize(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d := dist{N: len(s), TailQ: tailQuantile(len(s))}
	if len(s) == 0 {
		return d
	}
	d.P50 = median(s)
	d.Tail = quantile(s, d.TailQ)
	d.Max = s[len(s)-1]
	return d
}

// median returns the median of values (mean of the middle pair for an
// even count; 0 for none).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values with the
// exclusive method of Python's statistics.quantiles(values, n=4), the
// rule the benchmark's spreads are judged by.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: position i*(n+1)/4 (1-based),
		// its index clamped to 1..n-1, interpolated from there.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
