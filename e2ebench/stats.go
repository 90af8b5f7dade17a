package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail can be reported at. A fixed
// ladder keeps a workload's tail on the same percentile from run to run
// as long as its sample count stays inside one rung.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must lie above a reported
// tail percentile.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankIndex is the nearest-rank index of percentile p in n sorted
// samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest ladder percentile not above want that has at
// least minBeyond samples above it, with its value. It fails when even
// the median has fewer than minBeyond samples above it.
func tail(xs []float64, want float64) (pct, val float64, err error) {
	s := sortedCopy(xs)
	n := len(s)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if p > want || n == 0 {
			continue
		}
		idx := rankIndex(p, n)
		if n-1-idx >= minBeyond {
			return p, s[idx], nil
		}
	}
	return 0, 0, fmt.Errorf("tail: %d samples leave fewer than %d beyond the median", n, minBeyond)
}
