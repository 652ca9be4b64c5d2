package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only when
// at least this many samples lie beyond it, so p90 needs 100 samples and
// p99 needs 1000.
const minBeyond = 10

// percentile returns the p-quantile of xs. p = 0.5 is the median, which
// any non-empty sample supports: it is a centre, not a tail, and a
// scale5000 round holds one or two passes. Any other p is the nearest-rank
// value, refused unless minBeyond samples lie beyond it. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p == 0.5 {
		if n == 0 {
			return 0, fmt.Errorf("median of no samples")
		}
		return median(xs), nil
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	if !tailSupported(n, p) {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", p*100, n, minBeyond)
	}
	return sorted(xs)[rank(n, p)-1], nil
}

// rank is the 1-based nearest rank of the p-quantile among n samples. The
// epsilon keeps float error in p*n (0.99*1000) from adding a rank.
func rank(n int, p float64) int { return max(1, int(math.Ceil(p*float64(n)-1e-9))) }

// tailSupported reports whether n samples leave minBeyond beyond the
// p-quantile.
func tailSupported(n int, p float64) bool { return n > 0 && n-rank(n, p) >= minBeyond }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles with the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so a spread
// computed here matches one computed by a Python reader of the same runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median: the
// run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
