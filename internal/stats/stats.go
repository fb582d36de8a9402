// Package stats provides the numerical routines EARL is built on:
// descriptive statistics, streaming (Welford) accumulators, quantiles,
// least-squares model fitting, and the probability distributions used by
// the resampling machinery (normal, binomial) together with the z
// interval for categorical proportions.
//
// All functions are pure and allocation-conscious; none of them seed or
// hold global random state. Randomized routines accept a *rand.Rand so
// callers control determinism.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by estimators that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// ErrShortInput is returned by estimators that require more observations
// than were supplied (for example sample variance on fewer than two points).
var ErrShortInput = errors.New("stats: not enough observations")

// Sum returns the sum of xs using Kahan compensated summation, which keeps
// the error bounded even over the long, skewed datasets EARL samples from.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrShortInput
	}
	m, _ := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(len(xs)-1), nil
}

// PopVariance returns the population (n denominator) variance of xs.
func PopVariance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	n := float64(len(xs))
	return v * (n - 1) / n, nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// CV returns the coefficient of variation stddev/|mean| of xs — the error
// measure EARL reports from its accuracy estimation stage. It returns an
// error when the mean is zero, since cv is undefined there.
func CV(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: cv undefined for zero mean")
	}
	return sd / math.Abs(m), nil
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// errQuantileRange is shared by the quantile variants so they reject
// out-of-range (and NaN) q identically.
var errQuantileRange = errors.New("stats: quantile out of range [0,1]")

// quantileType7 is the ONE type-7 (R/NumPy default) interpolation
// kernel behind every quantile variant — QuantileSorted, SelectQuantile,
// QuantileCounted and OrderStat.Quantile differ only in how they reach
// an order statistic, so they share the h/lo/frac arithmetic and its
// edge cases here. kth(k) must return the k-th (0-based) order
// statistic; it is called with lo first and, only when interpolation is
// needed, lo+1 — an ordering in-place selectors and the counted scan
// rely on.
func quantileType7(n int64, q float64, kth func(k int64) float64) (float64, error) {
	if n == 0 {
		return 0, ErrEmpty
	}
	if !(q >= 0 && q <= 1) { // negated form rejects NaN
		return 0, errQuantileRange
	}
	if n == 1 {
		return kth(0), nil
	}
	h := q * float64(n-1)
	lo := int64(h)
	frac := h - float64(lo)
	vLo := kth(lo)
	if frac == 0 || lo+1 >= n {
		return vLo, nil
	}
	return vLo*(1-frac) + kth(lo+1)*frac, nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs is not modified: the selection runs over a pooled scratch copy, so
// the call is O(n) expected time and allocation-free in steady state —
// this is the one-shot quantile path every bootstrap resample of a
// median/quantile statistic takes.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if !(q >= 0 && q <= 1) { // negated form rejects NaN
		return 0, errQuantileRange
	}
	bufp := scratchPool.Get().(*[]float64)
	if cap(*bufp) < len(xs) {
		*bufp = make([]float64, len(xs))
	}
	buf := (*bufp)[:len(xs)]
	copy(buf, xs)
	v, err := SelectQuantile(buf, q)
	if cap(*bufp) > maxPooledScratch {
		*bufp = nil
	}
	scratchPool.Put(bufp)
	return v, err
}

// QuantileSorted is Quantile for data already in ascending order; it does
// not allocate. Behaviour is undefined if xs is unsorted.
func QuantileSorted(xs []float64, q float64) (float64, error) {
	return quantileType7(int64(len(xs)), q, func(k int64) float64 { return xs[k] })
}

// QuantileCounted is QuantileSorted over a counted multiset —
// counts[i] copies of distinct[i], distinct ascending, n the sum of the
// counts, zero counts allowed — bit for bit, without writing the
// multiset out: one prefix scan over the counts finds the lower order
// statistic and, relying on quantileType7's lo-then-lo+1 call order,
// goes on from there to its successor.
//
//earl:hotpath
func QuantileCounted(distinct []float64, counts []uint32, n int64, q float64) (float64, error) {
	i, below := 0, int64(0) // below counts the items in the slots before i
	return quantileType7(n, q, func(k int64) float64 {
		for below+int64(counts[i]) <= k {
			below += int64(counts[i])
			i++
		}
		return distinct[i]
	})
}

// Welford is a streaming accumulator for count, mean and variance using
// Welford's online algorithm. It is the state representation used by the
// incremental reduce API for moment-based statistics: two Welford states
// can be merged exactly, which is what Update() does during EARL's delta
// maintenance.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// WelfordLanes is how many accumulators AddLanes steps side by side.
// One Add is a chain of dependent operations — subtract, divide, add —
// that the next Add on the same accumulator must wait for, so a lone
// accumulator runs at the divider's latency; four independent chains
// interleaved keep it busy and cost about what one does.
const WelfordLanes = 4

// AddLanes folds batches[k] into ws[k] for distinct accumulators,
// WelfordLanes of them at a time. Each accumulator ends bit for bit
// where `for _, x := range batches[k] { ws[k].Add(x) }` would leave it:
// the lanes share a loop, never an operand. Batches may differ in length
// (the common prefix is interleaved, each tail finished on its own) or
// be empty.
//
//earl:hotpath
func AddLanes(ws []*Welford, batches [][]float64) {
	if len(ws) > WelfordLanes {
		AddLanes(ws[:WelfordLanes], batches[:WelfordLanes])
		AddLanes(ws[WelfordLanes:], batches[WelfordLanes:])
		return
	}
	common := 0
	if len(ws) > 1 {
		common = len(batches[0])
		for _, b := range batches[1:] {
			common = min(common, len(b))
		}
		// Lanes the caller did not fill replay lane 0 into accumulators
		// that are thrown away: an iteration is as long as its slowest
		// chain, so they cost nothing, and there is one kernel to keep
		// exact rather than one per lane count.
		var spare [WelfordLanes]Welford
		var w [WelfordLanes]*Welford
		var b [WelfordLanes][]float64
		for k := range w {
			w[k], b[k] = &spare[k], batches[0][:common]
			if k < len(ws) {
				w[k], b[k] = ws[k], batches[k][:common]
			}
		}
		addLanes4(w[0], w[1], w[2], w[3], b[0], b[1], b[2], b[3])
	}
	for k, w := range ws {
		for _, x := range batches[k][common:] {
			w.Add(x)
		}
	}
}

// addLanes4 is Add, four accumulators abreast over equal-length
// batches: the same three statements per lane, in the same order, on
// locals the compiler keeps in registers.
//
//earl:hotpath
func addLanes4(w0, w1, w2, w3 *Welford, b0, b1, b2, b3 []float64) {
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	n0, n1, n2, n3 := w0.n, w1.n, w2.n, w3.n
	mean0, mean1, mean2, mean3 := w0.mean, w1.mean, w2.mean, w3.mean
	s0, s1, s2, s3 := w0.m2, w1.m2, w2.m2, w3.m2
	for i, x0 := range b0 {
		x1, x2, x3 := b1[i], b2[i], b3[i]
		n0++
		n1++
		n2++
		n3++
		d0, d1, d2, d3 := x0-mean0, x1-mean1, x2-mean2, x3-mean3
		mean0 += d0 / float64(n0)
		mean1 += d1 / float64(n1)
		mean2 += d2 / float64(n2)
		mean3 += d3 / float64(n3)
		s0 += d0 * (x0 - mean0)
		s1 += d1 * (x1 - mean1)
		s2 += d2 * (x2 - mean2)
		s3 += d3 * (x3 - mean3)
	}
	w0.n, w1.n, w2.n, w3.n = n0, n1, n2, n3
	w0.mean, w1.mean, w2.mean, w3.mean = mean0, mean1, mean2, mean3
	w0.m2, w1.m2, w2.m2, w3.m2 = s0, s1, s2, s3
}

// Merge combines another accumulator into w (Chan et al. parallel update).
// The result is exactly the accumulator that would have been obtained by
// adding the two observation streams in sequence.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
}

// Remove subtracts one observation that was previously added. This is the
// primitive EARL's inter-iteration delta maintenance relies on when the
// binomial resize (Eq. 2 of the paper) deletes items from a resample.
// Removing a value that was never added leaves the accumulator in a
// statistically meaningless state; callers must pair Add/Remove correctly.
func (w *Welford) Remove(x float64) {
	if w.n <= 1 {
		*w = Welford{}
		return
	}
	n1 := float64(w.n - 1)
	oldMean := (float64(w.n)*w.mean - x) / n1
	w.m2 -= (x - w.mean) * (x - oldMean)
	if w.m2 < 0 {
		w.m2 = 0 // clamp accumulated floating-point error
	}
	w.mean = oldMean
	w.n--
}

// N returns the number of observations folded in so far.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Sum returns n*mean, the reconstructed total.
func (w *Welford) Sum() float64 { return float64(w.n) * w.mean }

// CV returns the coefficient of variation of the accumulated stream,
// or 0 when the mean is zero.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.StdDev() / math.Abs(w.mean)
}
