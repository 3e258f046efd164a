package main

import (
	"math"
	"slices"
)

// median returns the middle value (mean of the two middle values for an even
// count); 0 when empty. It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so a
// calibration's spreads read the same as the driver's. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// exactQuantile returns the q-quantile of sorted samples by ceiling rank:
// the smallest sample with at least ceil(q*n) samples at or below it.
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailQuantile is the highest quantile, up to p99, that still has ten of n
// samples beyond it: 1 - 10/n. It is continuous in n, so a workload whose
// sample count sits near a round threshold does not flip between two
// percentiles from run to run. Below twenty samples it is the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return min(0.99, 1-10/float64(n))
}
