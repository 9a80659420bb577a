package main

import "sort"

// median returns the median of xs (0 for none).  xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailBeyond is the number of samples a tail percentile must leave
// beyond it.
const tailBeyond = 10

// tail returns the sample at the highest percentile that still has at
// least tailBeyond samples beyond it, with that percentile.  With too
// few samples it returns the maximum at percentile 100.  xs is sorted
// in place.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	n := len(xs)
	i := n - 1 - tailBeyond
	if i < 0 {
		return xs[n-1], 100
	}
	return xs[i], 100 * float64(i+1) / float64(n)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
