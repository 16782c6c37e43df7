package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailPercentiles are the percentiles a tail latency may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest percentile in tailPercentiles that
// leaves at least 10 of n samples beyond it, or 0 when even the median
// does not (fewer than 20 samples). A percentile with fewer samples
// beyond it is one or two outliers, not a tail.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
