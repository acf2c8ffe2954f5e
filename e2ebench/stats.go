package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure describes a handful of requests, not a
// tail.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// refuses when fewer than minTail samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples", 100*p, n)
	}
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain sample median, for figures reported without a tail
// (a few jobs, a handful of set-up repetitions).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}
