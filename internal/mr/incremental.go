package mr

import (
	"errors"
	"math"
)

// State is an opaque summary of a user function f after processing some
// data — "a representation of a user's function f after processing s on
// f" (§2.1). Saving states instead of raw data is what makes EARL's
// resample maintenance memory-resident.
type State any

// IncrementalReducer is the paper's finer-grained reduce interface. It
// decomposes a reduce into four methods so that EARL can (a) keep one
// state per bootstrap resample, (b) grow states when the sample expands
// (delta maintenance), and (c) rescale results computed from a fraction
// p of the data:
//
//	initialize: k → empty state
//	update:     state × values → state   (and remove, its inverse)
//	finalize:   state → (result, error estimate input)
//	correct:    result × p → corrected result
//
// The paper's initialize over <k,v1>,...,<k,vk> is Initialize then
// Update: a state starts empty, and every value reaches it through
// Update (or its lane and counted twins). Merge folds one state into
// another. Every method that takes a batch takes it as a []float64 and
// does not retain it: callers (the delta-maintenance hot path in
// particular) hand in reused scratch buffers. A state of the wrong
// concrete type is ErrBadState.
type IncrementalReducer interface {
	// Initialize returns a fresh, empty state for key.
	Initialize(key string) (State, error)
	// Update folds a batch of raw values into state, in slice order,
	// returning the new state, which may alias the argument. A reducer
	// that also implements LaneUpdater extends the same clause across
	// states: however many it steps side by side, each state sees
	// exactly this fold. A reducer that is also a MultisetReducer
	// promises more — any permutation of a batch leaves its state
	// bit-identical — and in return may be handed a batch sorted and
	// counted instead of in draw order.
	Update(state State, values []float64) (State, error)
	// Remove deletes from state one previously folded copy of every
	// value of the batch — the primitive §4.1's resize needs when it
	// shrinks a resample. Removing a value the state does not hold is
	// an error.
	Remove(state State, values []float64) error
	// Merge folds other, a state of this reducer, into state and
	// returns the new state, which may alias state; other is not
	// modified, so one state may be merged into many (§4.2's shared
	// block, delta.SharedResampler).
	Merge(state, other State) (State, error)
	// Finalize extracts the current result from a state.
	Finalize(state State) (float64, error)
	// Correct rescales a result computed from fraction p (0 < p ≤ 1) of
	// the data. Mean-like statistics return the result unchanged; SUM and
	// COUNT scale by 1/p (§2.1's example). The system cannot know the
	// user function's semantics, so correction is user logic.
	Correct(result float64, p float64) float64
}

// ErrBadState is returned when an IncrementalReducer is handed a state of
// the wrong concrete type.
var ErrBadState = errors.New("mr: state has wrong type for this reducer")

// LaneUpdater is implemented by reducers that can fold several
// independent (state, batch) pairs side by side — the cross-state twin
// of Update's []float64 batches. A moment update is a short chain of
// dependent arithmetic, so one state alone is bound by that chain's
// latency; a few distinct states stepped in the same loop are not.
// UpdateLanes must leave states[k] exactly as Update(states[k],
// batches[k]) would — same slice order, same arithmetic, bit for bit —
// for any number of states, batches of unequal length and empty ones;
// only the interleaving across states is the implementation's to choose.
type LaneUpdater interface {
	UpdateLanes(states []State, batches [][]float64) error
}

// UpdateLanes folds batches[k] into states[k] for every k, replacing
// states[k] with the state Update returns. The states must be pairwise
// distinct. Reducers implementing LaneUpdater take the whole group in one
// call; every other reducer gets the loop over Update, which is what the
// capability is defined to equal, and an empty batch is left alone. On
// error the group is abandoned: states before the failing one have been
// folded, later ones not.
func UpdateLanes(r IncrementalReducer, states []State, batches [][]float64) error {
	if lu, ok := r.(LaneUpdater); ok {
		return lu.UpdateLanes(states, batches)
	}
	for k := range states {
		if len(batches[k]) == 0 {
			continue
		}
		next, err := r.Update(states[k], batches[k])
		if err != nil {
			return err
		}
		states[k] = next
	}
	return nil
}

// MultisetReducer is implemented by reducers whose state depends only on
// the multiset of a batch: Update with any permutation of a []float64
// batch leaves a state bit-identical — every later Finalize, Remove and
// Update included. An order-statistic multiset qualifies; a
// floating-point accumulator does not (its rounding follows the fold
// order), so the moment reducers must not implement it. The engine may
// then present a batch sorted and counted — strictly ascending distinct
// values, counts[i] copies of distinct[i], zero counts allowed — instead
// of in the order it was drawn, and UpdateCounted must leave exactly the
// state Update would leave given the same multiset as a slice. Neither
// argument is retained or modified. The promise covers the batches Rank
// agrees to sort: no NaN, and not +0 beside −0.
//
// FinalizeCounted is the result of a counted batch with no state built:
// bit for bit — error included — Finalize of an empty state after
// UpdateCounted(state, distinct, counts), where n is the sum of the
// counts. A caller whose resamples are all drawn from one ranked source
// — SSABE's pilot — keeps each resample as its counts over the source's
// distinct values and finalizes from them, so a draw, a delete and an
// add are each one counter step.
type MultisetReducer interface {
	UpdateCounted(state State, distinct []float64, counts []uint32) (State, error)
	FinalizeCounted(distinct []float64, counts []uint32, n int64) (float64, error)
}

// PlugInReducer is implemented by reducers whose bootstrap error has a
// closed form, Efron's plug-in standard error: over n records drawn
// like the pilot, the statistic's bootstrap cv is PlugInCV(pilot)/√n.
// SSABE then solves for n without fitting a curve (aes.PlanAll). A mean
// qualifies, and so does a sum, whose Correct only rescales; a count,
// a variance or a quantile does not, so a reducer that embeds a mean's
// methods must not inherit this one. A cv that is not finite (a pilot
// whose mean is 0) says that no sample size reaches σ.
type PlugInReducer interface {
	PlugInCV(pilot []float64) float64
}

// Ranking is a batch source — a Δs, SSABE's pilot — sorted once, so that
// each bootstrap resample drawn from it by position reaches a
// MultisetReducer for one counter increment per draw (counts[Of[p]]++)
// instead of one sort per resample: the reducer's counted methods take
// Distinct and the counts. A ranking belongs to no reducer — every
// MultisetReducer folding resamples of the source may read it — and it
// is read-only after Rank, safe to share between workers; the counters
// — one per distinct value, zeroed by the caller between resamples —
// are the caller's per-worker scratch. A stretch of the source is
// ranked over the whole source's values by the same Distinct and that
// stretch of Of — a view, with zero counts for the values it lacks,
// which is how SSABE's phase 2 cuts its pilot segments.
type Ranking struct {
	Distinct []float64 // the source's distinct values, ascending
	Of       []uint32  // Of[j] is the index in Distinct of source[j]
}

// Rank ranks source. It returns nil — and the caller keeps folding
// batches in draw order — unless r is a MultisetReducer and sorting
// cannot change a bit of a multiset state: a source holding a NaN is
// left for the reducer to reject as it always has, and one holding both
// +0 and −0, which compare equal, would otherwise reach the state in an
// order other than the reducer's own sort would have produced. Neither
// condition depends on which MultisetReducer r is.
//
// A source already ascending — a Δs the sinks sorted where it lies — is
// ranked in one linear pass; any other is radix-sorted with its
// positions. Both give the same Ranking.
func Rank(r IncrementalReducer, source []float64) *Ranking {
	if _, ok := r.(MultisetReducer); !ok || len(source) == 0 {
		return nil
	}
	var posZero, negZero bool
	ascending := true
	for j, v := range source {
		if v != v {
			return nil
		}
		if v == 0 {
			if math.Signbit(v) {
				negZero = true
			} else {
				posZero = true
			}
		}
		ascending = ascending && (j == 0 || source[j-1] <= v)
	}
	if posZero && negZero {
		return nil
	}
	if ascending {
		return rankAscending(source)
	}
	return rankBySort(source)
}

// rankAscending ranks an ascending source in one pass: a value that
// differs from its predecessor opens the next distinct rank.
func rankAscending(source []float64) *Ranking {
	distinct := make([]float64, 0, len(source))
	of := make([]uint32, len(source))
	for j, v := range source {
		if j == 0 || v != source[j-1] {
			distinct = append(distinct, v)
		}
		of[j] = uint32(len(distinct) - 1)
	}
	return &Ranking{Distinct: distinct, Of: of}
}

// rankBySort ranks any source: a least-significant-digit radix sort of
// its values' order-preserving bit keys, carrying each value's
// position, then one walk that opens a rank wherever the key changes.
// Keys are equal exactly when values are: Rank has turned away NaN and
// +0 beside −0.
func rankBySort(source []float64) *Ranking {
	n := len(source)
	keys, pos := make([]uint64, n), make([]uint32, n)
	for j, v := range source {
		k := math.Float64bits(v)
		if k>>63 != 0 {
			k = ^k // negative: the larger the magnitude, the smaller the key
		} else {
			k |= 1 << 63
		}
		keys[j], pos[j] = k, uint32(j)
	}
	nextKeys, nextPos := make([]uint64, n), make([]uint32, n)
	for shift := 0; shift < 64; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		if at[byte(keys[0]>>shift)] == n {
			continue // every key has this digit: the pass would move nothing
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for j, k := range keys {
			d := byte(k >> shift)
			nextKeys[at[d]], nextPos[at[d]] = k, pos[j]
			at[d]++
		}
		keys, nextKeys, pos, nextPos = nextKeys, keys, nextPos, pos
	}
	distinct := make([]float64, 0, n)
	of := make([]uint32, n)
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct = append(distinct, source[pos[i]])
		}
		of[pos[i]] = uint32(len(distinct) - 1)
	}
	return &Ranking{Distinct: distinct, Of: of}
}

// IdentityCorrect is the correction for statistics that are invariant to
// sampling fraction (mean, median, quantiles, variance).
func IdentityCorrect(result, p float64) float64 { return result }

// ScaleCorrect is the correction for extensive statistics (SUM, COUNT):
// scale by 1/p.
func ScaleCorrect(result, p float64) float64 {
	if p <= 0 {
		return result
	}
	return result / p
}
