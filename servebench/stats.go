package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples, refusing a percentile with fewer than minTail samples
// beyond it.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", 100*q, n, n-rank, minTail)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[rank-1], nil
}

// median of the values (the mean of the middle two for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
