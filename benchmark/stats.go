package main

import (
	"math"
	"slices"
)

// nearestRank returns the q-quantile of sorted xs by the nearest-rank
// method: the smallest sample with at least a share q of the samples
// at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile among n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return max(1, min(n, r))
}

// beyond counts the samples strictly above the nearest-rank
// q-quantile's position. A percentile is reported only when at least
// ten samples lie beyond it.
func beyond(n int, q float64) int { return n - rank(n, q) }

// minOpsFor is the smallest sample count with ten samples beyond the
// q-quantile: 100 for p90.
func minOpsFor(q float64) int {
	n := 1
	for beyond(n, q) < 10 {
		n++
	}
	return n
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so spreads printed here match that definition.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(n-1, i*m/4))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
