package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 1) of
// xs, which must be non-empty; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return xs[max(rank(len(xs), q), 1)-1]
}

// rank is the 1-based nearest rank of the q-th percentile of n samples.
func rank(n int, q float64) int { return int(math.Ceil(q * float64(n))) }

// supportsPercentile reports whether n samples leave at least ten
// beyond the q-th percentile — the floor under which a tail percentile
// is one slow request, not a measurement.
func supportsPercentile(n int, q float64) bool { return n-rank(n, q) >= 10 }

// median returns the median of xs (mean of the middle two when even);
// NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// relSpread is (max − min) / median of the per-repetition values: how
// far apart the repetitions of one run landed, printed beside every
// median so a reader sees whether the median means anything.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// quantileType7 is the oracle's quantile: linear interpolation between
// order statistics at h = (n−1)q, over sorted xs.
func quantileType7(sorted []float64, q float64) float64 {
	h := float64(len(sorted)-1) * q
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (h-lo)*(sorted[i+1]-sorted[i])
}
