// Package jobs is the library of user analytics jobs the EARL
// reproduction runs: the aggregates of the paper's experiments (mean in
// Fig. 5, median in Fig. 6, K-Means in Fig. 7) plus the wider set the
// design supports — sum/count with 1/p correction (§2.1's example),
// variance, arbitrary quantiles and categorical proportions (Appendix A).
//
// Every numeric job is expressed once as an mr.IncrementalReducer (the
// initialize/update/finalize/correct API of §2.1) so it can run under
// EARL's resample maintenance, and once as a plain bootstrap.Statistic
// for pilot estimation. A reducer's Initialize returns an empty state —
// a Welford accumulator, a counted multiset — and every value reaches
// it through Update, UpdateLanes or UpdateCounted. Every reducer
// removes a batch in O(1) or O(log n) per value (a Welford downdate, a
// counted-multiset decrement), which is what makes inter-iteration
// delta maintenance cheap.
package jobs

import (
	"fmt"
	"math"

	"repro/internal/bootstrap"
	"repro/internal/colscan"
	"repro/internal/mr"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Numeric bundles everything the EARL driver needs to run one scalar
// statistic over line-encoded numeric records.
type Numeric struct {
	Name      string
	Reducer   mr.IncrementalReducer
	Statistic bootstrap.Statistic
	// Parse decodes one input line into the job's value. The stock
	// baseline job always parses with it; a query's runs — sampled or
	// the exact fall-back's scan — do only when ScanFormat is unset.
	Parse func(line string) (float64, error)
	// ScanFormat is the built-in columnar format that describes this
	// job's records: sampled runs then decode through colscan, sharing
	// decoded blocks between runs. The zero value (FormatNone) means
	// only Parse can read them — the samplers apply it to each line
	// they read, and its output is validated like a built-in decode
	// (NaN/±Inf is a bad record). Every built-in job reads
	// one-float-per-line records and sets FormatNumeric.
	ScanFormat colscan.Format
}

// numericScan marks a one-float-per-line job for the columnar decoder.
const numericScan = colscan.FormatNumeric

// Mean returns the mean job (identity correction).
func Mean() Numeric {
	return Numeric{
		Name:       "mean",
		Reducer:    meanReducer{},
		Statistic:  bootstrap.Mean,
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// Sum returns the sum job; Correct scales by 1/p (§2.1's SUM example).
func Sum() Numeric {
	return Numeric{
		Name:       "sum",
		Reducer:    sumReducer{},
		Statistic:  bootstrap.Sum,
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// Count returns the record-count job (scales by 1/p).
func Count() Numeric {
	return Numeric{
		Name:    "count",
		Reducer: countReducer{},
		Statistic: func(xs []float64) (float64, error) {
			return float64(len(xs)), nil
		},
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// Variance returns the sample-variance job.
func Variance() Numeric {
	return Numeric{
		Name:       "variance",
		Reducer:    varianceReducer{},
		Statistic:  stats.Variance,
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// StdDev returns the standard-deviation job.
func StdDev() Numeric {
	return Numeric{
		Name:       "stddev",
		Reducer:    stddevReducer{},
		Statistic:  bootstrap.StdDev,
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// Median returns the median job — the paper's showcase for statistics
// where the jackknife fails and closed-form error analysis is hopeless.
func Median() Numeric {
	return Numeric{
		Name:       "median",
		Reducer:    quantileReducer{q: 0.5},
		Statistic:  bootstrap.Median,
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// Quantile returns the q-th quantile job (0 < q < 1).
func Quantile(q float64) (Numeric, error) {
	// The negated-range form rejects NaN too: NaN fails both q <= 0 and
	// q >= 1, and an admitted NaN panics downstream when the quantile
	// index is computed — remotely reachable via earld's "qnan" job name.
	if !(q > 0 && q < 1) {
		return Numeric{}, fmt.Errorf("jobs: quantile q=%v outside (0,1)", q)
	}
	return Numeric{
		Name:    fmt.Sprintf("quantile-%g", q),
		Reducer: quantileReducer{q: q},
		Statistic: func(xs []float64) (float64, error) {
			return stats.Quantile(xs, q)
		},
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}, nil
}

// Proportion returns the categorical proportion-of-successes job of
// Appendix A over 0/1 records.
func Proportion() Numeric {
	return Numeric{
		Name:       "proportion",
		Reducer:    meanReducer{}, // the proportion is the mean of 0/1 data
		Statistic:  bootstrap.Mean,
		Parse:      workload.DecodeLine,
		ScanFormat: numericScan,
	}
}

// ---------------------------------------------------------------------
// Welford-backed moment reducers.

// welfordState is shared by mean/sum/count/variance/stddev reducers.
type welfordState struct{ w stats.Welford }

// moments is every moment reducer's fold of a welfordState: all of
// mr.IncrementalReducer but Finalize, which each reducer reads its own
// moment with.
type moments struct{}

// Initialize implements mr.IncrementalReducer: an empty accumulator.
func (moments) Initialize(string) (mr.State, error) { return &welfordState{}, nil }

// Update implements mr.IncrementalReducer for every moment reducer:
// the batch is folded in slice order.
//
//earl:hotpath
func (moments) Update(state mr.State, values []float64) (mr.State, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return nil, mr.ErrBadState
	}
	for _, v := range values {
		st.w.Add(v)
	}
	return st, nil
}

// Remove implements mr.IncrementalReducer, in slice order.
//
//earl:hotpath
func (moments) Remove(state mr.State, values []float64) error {
	st, ok := state.(*welfordState)
	if !ok {
		return mr.ErrBadState
	}
	for _, v := range values {
		st.w.Remove(v)
	}
	return nil
}

// Merge implements mr.IncrementalReducer.
func (moments) Merge(state, other mr.State) (mr.State, error) {
	st, ok := state.(*welfordState)
	o, ok2 := other.(*welfordState)
	if !ok || !ok2 {
		return nil, mr.ErrBadState
	}
	st.w.Merge(o.w)
	return st, nil
}

// UpdateLanes implements mr.LaneUpdater for every moment reducer (they
// all embed moments): the states' Welford accumulators go through
// the stats lane kernel stats.WelfordLanes at a time.
//
//earl:hotpath
func (moments) UpdateLanes(states []mr.State, batches [][]float64) error {
	var ws [stats.WelfordLanes]*stats.Welford
	for lo := 0; lo < len(states); lo += len(ws) {
		hi := min(lo+len(ws), len(states))
		for k, state := range states[lo:hi] {
			st, ok := state.(*welfordState)
			if !ok {
				return mr.ErrBadState
			}
			ws[k] = &st.w
		}
		stats.AddLanes(ws[:hi-lo], batches[lo:hi])
	}
	return nil
}

// Correct implements mr.IncrementalReducer: a mean, a variance and a
// standard deviation are p-invariant.
func (moments) Correct(result, p float64) float64 { return mr.IdentityCorrect(result, p) }

// meanReducer is the mean (and the proportion, the mean of 0/1 data),
// and the one moment reducer (with sumReducer, which embeds it) whose
// bootstrap error has a plug-in form.
type meanReducer struct{ moments }

// Finalize implements mr.IncrementalReducer.
func (meanReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return st.w.Mean(), nil
}

// PlugInCV implements mr.PlugInReducer: one record's cv, s/|x̄|, the
// mean's bootstrap cv over a sample of one. A sum's is the same, since
// its Correct only rescales.
func (meanReducer) PlugInCV(pilot []float64) float64 {
	cv, err := stats.CV(pilot)
	if err != nil || math.IsNaN(cv) {
		return math.Inf(1)
	}
	return cv
}

type sumReducer struct{ meanReducer }

// Finalize implements mr.IncrementalReducer.
func (sumReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return st.w.Sum(), nil
}

// Correct implements mr.IncrementalReducer: SUM scales by 1/p.
func (sumReducer) Correct(result, p float64) float64 { return mr.ScaleCorrect(result, p) }

type countReducer struct{ moments }

// Finalize implements mr.IncrementalReducer.
func (countReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return float64(st.w.N()), nil
}

// Correct implements mr.IncrementalReducer: COUNT scales by 1/p.
func (countReducer) Correct(result, p float64) float64 { return mr.ScaleCorrect(result, p) }

type varianceReducer struct{ moments }

// Finalize implements mr.IncrementalReducer.
func (varianceReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return st.w.Variance(), nil
}

type stddevReducer struct{ moments }

// Finalize implements mr.IncrementalReducer.
func (stddevReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return st.w.StdDev(), nil
}

// ---------------------------------------------------------------------
// Order-statistic reducer: a Fenwick-indexed counted multiset.

// multisetState wraps stats.OrderStat — a sorted value dictionary with a
// Fenwick tree over multiplicities — so quantile resample maintenance is
// O(log k) per add/remove and O(log k) per Finalize, with zero
// steady-state allocation. (The previous representation re-sorted the
// whole dictionary on every mutation and scanned it linearly per order
// statistic.)
type multisetState struct{ ms stats.OrderStat }

type quantileReducer struct{ q float64 }

// Initialize implements mr.IncrementalReducer: an empty multiset.
func (r quantileReducer) Initialize(string) (mr.State, error) { return &multisetState{}, nil }

// Update implements mr.IncrementalReducer. NaN inputs are rejected (a
// NaN would corrupt the ordered dictionary for finite values too).
//
//earl:hotpath
func (r quantileReducer) Update(state mr.State, values []float64) (mr.State, error) {
	st, ok := state.(*multisetState)
	if !ok {
		return nil, mr.ErrBadState
	}
	if err := st.ms.AddBatch(values); err != nil {
		return nil, err
	}
	return st, nil
}

// Remove implements mr.IncrementalReducer.
//
//earl:hotpath
func (r quantileReducer) Remove(state mr.State, values []float64) error {
	st, ok := state.(*multisetState)
	if !ok {
		return mr.ErrBadState
	}
	return st.ms.RemoveBatch(values)
}

// Merge implements mr.IncrementalReducer.
func (r quantileReducer) Merge(state, other mr.State) (mr.State, error) {
	st, ok := state.(*multisetState)
	o, ok2 := other.(*multisetState)
	if !ok || !ok2 {
		return nil, mr.ErrBadState
	}
	st.ms.Merge(&o.ms)
	return st, nil
}

// Finalize implements mr.IncrementalReducer.
func (r quantileReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*multisetState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return st.ms.Quantile(r.q)
}

// UpdateCounted implements mr.MultisetReducer: the state is a counted
// multiset, and stats.OrderStat sorts and counts a batch before it looks
// at it, so the order values arrive in leaves no trace.
func (r quantileReducer) UpdateCounted(state mr.State, distinct []float64, counts []uint32) (mr.State, error) {
	st, ok := state.(*multisetState)
	if !ok {
		return nil, mr.ErrBadState
	}
	st.ms.AddCounted(distinct, counts)
	return st, nil
}

// FinalizeCounted implements mr.MultisetReducer: the quantile of the
// counted batch by one prefix scan, the value Finalize reads from an
// empty state UpdateCounted has folded the batch into.
func (r quantileReducer) FinalizeCounted(distinct []float64, counts []uint32, n int64) (float64, error) {
	return stats.QuantileCounted(distinct, counts, n, r.q)
}

// Correct implements mr.IncrementalReducer: quantiles are p-invariant.
func (r quantileReducer) Correct(result, p float64) float64 { return mr.IdentityCorrect(result, p) }
