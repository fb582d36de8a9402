// Package bootstrap implements the resampling machinery of §3: the
// Monte-Carlo bootstrap EARL uses for error estimation of arbitrary
// functions, the jackknife it compares against (and which fails for the
// median — the paper's reason to prefer the bootstrap), the percentile
// confidence interval, and the moving-block bootstrap of Appendix A for
// dependent data.
//
// Everything operates on a plain []float64 sample and a Statistic — "the
// function of interest f" in the paper's notation. Randomness is always
// an explicit *rand.Rand.
//
// There is one Monte-Carlo engine (runShards): ParallelMonteCarlo and
// ParallelMovingBlock differ only in how a resample is built, and both
// split the B draws across a worker pool with deterministic per-shard
// rng streams, producing bit-identical Result.Values at any parallelism
// level — parallelism 1 is the sequential case, not a second path.
//
// Statistics are handed a scratch resample buffer and must not retain or
// mutate it beyond the call. Order-statistic functions (Median, the
// quantile statistics of package jobs) evaluate via stats.Quantile's
// selection path — an O(n) Floyd–Rivest-style quickselect over a pooled
// scratch copy instead of a copy + full sort per resample — which is
// what keeps the quantile Monte-Carlo families allocation-free and
// sort-free in steady state.
package bootstrap

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/pool"
	"repro/internal/stats"
)

// Sentinel errors shared by every resampling variant, so callers can
// branch with errors.Is instead of matching message text.
var (
	// ErrTooFewResamples is returned when B < 2: with fewer than two
	// resamples the result distribution has no spread to measure.
	ErrTooFewResamples = errors.New("bootstrap: need B ≥ 2")
	// ErrBlockLength is returned by the moving-block variants when the
	// block length falls outside [1, n].
	ErrBlockLength = errors.New("bootstrap: block length out of range")
)

// Statistic is the function of interest computed on a (re)sample.
type Statistic func(xs []float64) (float64, error)

// Common statistics, exported for convenience and used throughout the
// experiments.
var (
	// Mean is the sample mean.
	Mean Statistic = stats.Mean
	// Median is the sample median.
	Median Statistic = stats.Median
	// Sum is the sample sum (needs 1/p correction when sampled).
	Sum Statistic = func(xs []float64) (float64, error) {
		if len(xs) == 0 {
			return 0, stats.ErrEmpty
		}
		return stats.Sum(xs), nil
	}
	// StdDev is the sample standard deviation.
	StdDev Statistic = stats.StdDev
)

// Result summarises the result distribution produced by resampling: the
// B per-resample values of f and the accuracy measures derived from them
// (§3.1). CV — stddev over |mean| of the distribution — is EARL's default
// error measure.
type Result struct {
	Values   []float64 // f on each resample, in draw order
	Estimate float64   // mean of Values (θ̂*)
	StdErr   float64   // standard deviation of Values (σ̂_B)
	CV       float64   // StdErr / |Estimate|
	Bias     float64   // Estimate − f(original sample)
}

func summarize(values []float64, original float64) (Result, error) {
	est, err := stats.Mean(values)
	if err != nil {
		return Result{}, err
	}
	var se float64
	if len(values) > 1 {
		se, err = stats.StdDev(values)
		if err != nil {
			return Result{}, err
		}
	}
	return Result{
		Values:   values,
		Estimate: est,
		StdErr:   se,
		CV:       safeCV(est, se),
		Bias:     est - original,
	}, nil
}

// safeCV is stderr/|estimate| with the zero-mean case made explicit: a
// zero estimate with nonzero spread is maximally unconverged (+Inf), not
// perfectly converged (0) — returning 0 there would make the driver's
// cv ≤ σ accuracy check terminate a run that has learned nothing.
func safeCV(est, se float64) float64 {
	switch {
	case est != 0:
		return se / math.Abs(est)
	case se > 0:
		return math.Inf(1)
	default:
		return 0
	}
}

// resample fills out with a uniform with-replacement draw from s: one
// bootstrap resample.
func resample(rng *rand.Rand, s []float64, out []float64) {
	for i := range out {
		out[i] = s[rng.IntN(len(s))]
	}
}

// The Monte-Carlo engine shards the B resamples of a bootstrap across a
// worker pool. Reproducibility contract: the work is cut into fixed-size
// shards (shardSize resamples each, independent of the worker count),
// each shard owns a deterministic rng stream derived from two seed words
// drawn once from the caller's rng, and each shard writes its values
// into its own segment of the result slice — so Result.Values is
// bit-identical at parallelism 1, 4, or GOMAXPROCS for the same caller
// rng state.

// shardSize is the number of resamples evaluated per rng shard. It is a
// fixed constant — never derived from the parallelism — because the
// shard decomposition defines the value stream.
const shardSize = 64

// monteCarlo is the engine: f on the original sample, then f on B
// resamples evaluated across a pool of pool.Workers(parallelism)
// goroutines.
// newResample is called once per worker so each can own its scratch; the
// builder it returns draws one resample from the shard's rng. The two
// seed words for the per-shard streams are drawn from rng up front
// (exactly two Uint64s), so the caller's rng advances the same way at
// any parallelism. The first error in shard order is returned.
func monteCarlo(rng *rand.Rand, s []float64, f Statistic, B, parallelism int, newResample func() func(*rand.Rand) []float64) (Result, error) {
	if len(s) == 0 {
		return Result{}, stats.ErrEmpty
	}
	if B < 2 {
		return Result{}, fmt.Errorf("%w, got %d", ErrTooFewResamples, B)
	}
	orig, err := f(s)
	if err != nil {
		return Result{}, fmt.Errorf("bootstrap: f on original sample: %w", err)
	}
	seed1, seed2 := rng.Uint64(), rng.Uint64()
	values := make([]float64, B)
	nShards := (B + shardSize - 1) / shardSize
	err = pool.ForEachWorker(nShards, pool.Workers(parallelism), func() func(int) error {
		resample := newResample()
		return func(k int) error {
			shardRNG := stats.SplitRNG(seed1, seed2, k)
			for b := k * shardSize; b < min((k+1)*shardSize, B); b++ {
				v, err := f(resample(shardRNG))
				if err != nil {
					return fmt.Errorf("bootstrap: f on resample %d: %w", b, err)
				}
				values[b] = v
			}
			return nil
		}
	})
	if err != nil {
		return Result{}, err
	}
	return summarize(values, orig)
}

// ParallelMonteCarlo runs the standard Monte-Carlo approximation of the
// bootstrap (§3): B resamples of size len(s) drawn with replacement, f
// computed on each, on the engine above.
func ParallelMonteCarlo(rng *rand.Rand, s []float64, f Statistic, B, parallelism int) (Result, error) {
	return monteCarlo(rng, s, f, B, parallelism, func() func(*rand.Rand) []float64 {
		buf := make([]float64, len(s))
		return func(shardRNG *rand.Rand) []float64 {
			resample(shardRNG, s, buf)
			return buf
		}
	})
}

// ParallelMovingBlock runs the moving-block bootstrap for b-dependent
// data (Appendix A) on the same engine: resamples are built from random
// contiguous blocks of length blockLen so within-block dependence is
// preserved.
func ParallelMovingBlock(rng *rand.Rand, s []float64, blockLen int, f Statistic, B, parallelism int) (Result, error) {
	n := len(s)
	if n > 0 && (blockLen <= 0 || blockLen > n) {
		return Result{}, fmt.Errorf("%w: %d outside [1,%d]", ErrBlockLength, blockLen, n)
	}
	nStarts := n - blockLen + 1
	return monteCarlo(rng, s, f, B, parallelism, func() func(*rand.Rand) []float64 {
		buf := make([]float64, 0, n+blockLen)
		return func(shardRNG *rand.Rand) []float64 {
			buf = buf[:0]
			for len(buf) < n {
				start := shardRNG.IntN(nStarts)
				buf = append(buf, s[start:start+blockLen]...)
			}
			return buf[:n]
		}
	})
}

// Jackknife computes the delete-1 jackknife estimate of f's sampling
// distribution: n recomputations, each leaving one observation out. The
// returned StdErr uses the jackknife variance formula
// (n-1)/n · Σ(θ̂(i) − θ̂(·))². The jackknife has a fixed resample count
// and is cheaper than the bootstrap, but "does not work for many
// functions such as the median" (§3) — TestJackknifeFailsForMedian shows
// exactly that failure.
func Jackknife(s []float64, f Statistic) (Result, error) {
	n := len(s)
	if n < 2 {
		return Result{}, stats.ErrShortInput
	}
	orig, err := f(s)
	if err != nil {
		return Result{}, err
	}
	values := make([]float64, n)
	buf := make([]float64, n-1)
	for i := 0; i < n; i++ {
		copy(buf, s[:i])
		copy(buf[i:], s[i+1:])
		v, err := f(buf)
		if err != nil {
			return Result{}, fmt.Errorf("bootstrap: jackknife leave-%d: %w", i, err)
		}
		values[i] = v
	}
	mean, _ := stats.Mean(values)
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(float64(n-1) / float64(n) * ss)
	return Result{
		Values:   values,
		Estimate: mean,
		StdErr:   se,
		CV:       safeCV(mean, se),
		Bias:     float64(n-1) * (mean - orig),
	}, nil
}

// PercentileCI returns the percentile bootstrap confidence interval at
// the given confidence level from the result distribution.
func (r Result) PercentileCI(confidence float64) (lo, hi float64, err error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("bootstrap: confidence must be in (0,1)")
	}
	if len(r.Values) == 0 {
		return 0, 0, stats.ErrEmpty
	}
	sorted := make([]float64, len(r.Values))
	copy(sorted, r.Values)
	sort.Float64s(sorted)
	alpha := (1 - confidence) / 2
	lo, err = stats.QuantileSorted(sorted, alpha)
	if err != nil {
		return 0, 0, err
	}
	hi, err = stats.QuantileSorted(sorted, 1-alpha)
	return lo, hi, err
}

// AutoBlockLength picks a moving-block length for series of length n
// with the standard n^(1/3) growth rate (Politis & White's rule up to
// its constant), clamped to [1, n].
func AutoBlockLength(n int) int {
	if n <= 1 {
		return 1
	}
	b := int(math.Ceil(math.Pow(float64(n), 1.0/3.0)))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// Proportion is the categorical-data path of Appendix A: successes are
// values equal to 1, and the z-based normal interval applies because the
// binomial proportion is asymptotically normal.
func Proportion(xs []float64, confidence float64) (p, halfWidth float64, err error) {
	if len(xs) == 0 {
		return 0, 0, stats.ErrEmpty
	}
	successes := 0
	for _, x := range xs {
		if x == 1 {
			successes++
		} else if x != 0 {
			return 0, 0, fmt.Errorf("bootstrap: categorical data must be 0/1, got %v", x)
		}
	}
	return stats.ProportionInterval(successes, len(xs), confidence)
}
