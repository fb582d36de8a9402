package delta

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mr"
)

// ProbIdenticalFraction evaluates Eq. 4 of the paper:
//
//	P(X = y) = n! / ((n − y·n)! · n^(y·n))
//
// the probability that a fraction y of one resample coincides with
// another resample's content (the birthday-problem probability that y·n
// with-replacement draws from n items are all distinct). Computed in log
// space so it stays finite for large n.
func ProbIdenticalFraction(n int, y float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("delta: n must be positive, got %d", n)
	}
	if y < 0 || y > 1 {
		return 0, fmt.Errorf("delta: y must be in [0,1], got %v", y)
	}
	k := int(math.Round(y * float64(n)))
	if k == 0 {
		return 1, nil
	}
	// log P = Σ_{i=0}^{k-1} log((n-i)/n)
	lp := 0.0
	for i := 0; i < k; i++ {
		lp += math.Log(float64(n-i) / float64(n))
	}
	return math.Exp(lp), nil
}

// ExpectedSavings is the objective §4.2 maximises: the overall work saved
// P(X = y) · y by sharing a y-fraction between resamples.
func ExpectedSavings(n int, y float64) (float64, error) {
	p, err := ProbIdenticalFraction(n, y)
	if err != nil {
		return 0, err
	}
	return p * y, nil
}

// OptimalY returns the y ∈ (0,1] maximising ExpectedSavings for sample
// size n, together with the savings value. The objective is unimodal in
// y (increasing linear term against a log-concave decreasing term), so a
// ternary search over [0,1] finds the optimum; the paper suggests
// binary search over the same structure.
func OptimalY(n int) (y, savings float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("delta: n must be positive, got %d", n)
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 100 && hi-lo > 1e-6; iter++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		s1, err := ExpectedSavings(n, m1)
		if err != nil {
			return 0, 0, err
		}
		s2, err := ExpectedSavings(n, m2)
		if err != nil {
			return 0, 0, err
		}
		if s1 < s2 {
			lo = m1
		} else {
			hi = m2
		}
	}
	y = (lo + hi) / 2
	savings, err = ExpectedSavings(n, y)
	return y, savings, err
}

// SharedResampler generates B resamples of s with intra-iteration
// sharing: a shared block of y*·n items is drawn once, its partial state
// computed once, and every resample's state starts from a copy of that
// partial state before adding its own (1−y*)·n distinct draws: one
// Merge of the shared state, which mr.IncrementalReducer promises not
// to modify, per resample.
type SharedResampler struct {
	red mr.IncrementalReducer
	key string
}

// NewSharedResampler wraps an incremental reducer for shared resampling.
func NewSharedResampler(red mr.IncrementalReducer, key string) (*SharedResampler, error) {
	if red == nil {
		return nil, errors.New("delta: reducer is required")
	}
	return &SharedResampler{red: red, key: key}, nil
}

// Draw computes the statistic on B resamples of s, sharing a y-optimal
// common block. draw(k) must return k fresh with-replacement draws from
// s. It returns the B finalized values plus the number of item-updates
// actually performed (the work measure Fig. 3 reports savings on).
func (sr *SharedResampler) Draw(s []float64, b int, draw func(k int) []float64) (values []float64, workItems int, err error) {
	n := len(s)
	if n == 0 {
		return nil, 0, errors.New("delta: empty sample")
	}
	if b < 2 {
		return nil, 0, fmt.Errorf("delta: need B ≥ 2, got %d", b)
	}
	y, _, err := OptimalY(n)
	if err != nil {
		return nil, 0, err
	}
	shared := int(math.Round(y * float64(n)))
	if shared > n {
		shared = n
	}
	sharedItems := draw(shared)
	sharedState, err := sr.red.Initialize(sr.key)
	if err == nil {
		sharedState, err = sr.red.Update(sharedState, sharedItems)
	}
	if err != nil {
		return nil, 0, err
	}
	workItems += shared

	values = make([]float64, b)
	for i := 0; i < b; i++ {
		st, err := sr.red.Initialize(sr.key)
		if err != nil {
			return nil, 0, err
		}
		st, err = sr.red.Merge(st, sharedState) // state-merge: O(1), no item work
		if err != nil {
			return nil, 0, err
		}
		st, err = sr.red.Update(st, draw(n-shared))
		if err != nil {
			return nil, 0, err
		}
		workItems += n - shared
		values[i], err = sr.red.Finalize(st)
		if err != nil {
			return nil, 0, err
		}
	}
	return values, workItems, nil
}

// NaiveWork returns the item-updates the standard bootstrap performs for
// the same job: B·n.
func NaiveWork(n, b int) int { return n * b }
