package stats

import "sync"

// Selection-based quantiles: Quantile used to copy + fully sort its
// input per call — O(n log n) and one allocation per bootstrap resample,
// which dominated the quantile-statistic Monte-Carlo families. Select
// partially orders in place in O(n) expected time, and Quantile runs it
// over a pooled scratch copy, so the one-shot quantile statistics are
// allocation-free in steady state while keeping the documented
// "xs is not modified" contract.

// scratchPool recycles the copy buffers Quantile selects over. Pooling
// (rather than one package-level buffer) keeps Quantile safe for the
// concurrent per-shard statistic evaluations of the parallel bootstrap.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// maxPooledScratch is the largest buffer, in values, Quantile leaves in
// scratchPool. The pool is for the per-resample evaluations, whose
// inputs are samples; an exact quantile over a whole file — a million
// records, 8 MB — is a one-off whose copy would otherwise sit in the
// pool (and in the live heap) until two collections have passed.
const maxPooledScratch = 1 << 18

// selectCutoff is the partition size below which Select finishes with
// insertion sort — sorting a handful of items beats further recursion.
const selectCutoff = 12

// Select partially sorts xs in place so that xs[k] holds the k-th
// (0-based) order statistic, everything before it is ≤ xs[k] and
// everything after is ≥ xs[k]. Median-of-three quickselect with an
// insertion-sort tail; O(n) expected, allocation-free. It panics if k is
// out of range, mirroring slice indexing.
//
//earl:hotpath
func Select(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	_ = xs[k] // bounds check up front
	for hi-lo > selectCutoff {
		// Median-of-three pivot (first/middle/last) guards the sorted and
		// reverse-sorted inputs that break naive quickselect.
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition: ends with xs[lo..j] ≤ pivot ≤ xs[j+1..hi].
		i, j := lo-1, hi+1
		for {
			for {
				i++
				if !(xs[i] < pivot) {
					break
				}
			}
			for {
				j--
				if !(xs[j] > pivot) {
					break
				}
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	// Insertion sort the residual window.
	for i := lo + 1; i <= hi; i++ {
		v := xs[i]
		j := i - 1
		for j >= lo && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// SelectQuantile computes the type-7 quantile of xs in place (xs is
// partially reordered), allocation-free. The result is bit-identical to
// QuantileSorted on the fully sorted data: it selects the lower order
// statistic and — relying on quantileType7's lo-then-lo+1 call order —
// scans the ≥-partition the selection left behind for its successor.
func SelectQuantile(xs []float64, q float64) (float64, error) {
	selected := int64(-1)
	return quantileType7(int64(len(xs)), q, func(k int64) float64 {
		if selected < 0 {
			Select(xs, int(k))
			selected = k
			return xs[k]
		}
		// Second call (k = selected+1): the successor order statistic is
		// the minimum of the ≥-partition the selection left behind.
		vHi := xs[selected+1]
		for _, v := range xs[selected+2:] {
			if v < vHi {
				vHi = v
			}
		}
		return vHi
	})
}
