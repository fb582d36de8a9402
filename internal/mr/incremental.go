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
//	initialize: <k,v1>,...,<k,vk> → state
//	update:     state × (state | value) → state
//	finalize:   state → (result, error estimate input)
//	correct:    result × p → corrected result
type IncrementalReducer interface {
	// Initialize reduces a batch of raw values into a fresh state. The
	// values slice must not be retained: callers (the delta-maintenance
	// hot path in particular) hand in reused scratch buffers.
	Initialize(key string, values []float64) (State, error)
	// Update folds input — another State produced by this reducer, a
	// single raw value, or a []float64 batch of raw values — into state,
	// returning the new state. The returned state may alias the argument.
	// A batch must be folded exactly as the per-value loop would fold it
	// (same order, same arithmetic); reducers that do not recognise
	// batches return ErrBadInput and UpdateAll falls back to the loop.
	// Batch slices are not retained. A reducer that also implements
	// LaneUpdater extends the same clause across states: however many
	// it steps side by side, each state sees exactly this fold. A
	// reducer that is also a MultisetReducer promises more — any
	// permutation of a batch leaves its state bit-identical, here and
	// in Initialize — and in return may be handed a batch sorted and
	// counted instead of in draw order.
	Update(state State, input any) (State, error)
	// Finalize extracts the current result from a state.
	Finalize(state State) (float64, error)
	// Correct rescales a result computed from fraction p (0 < p ≤ 1) of
	// the data. Mean-like statistics return the result unchanged; SUM and
	// COUNT scale by 1/p (§2.1's example). The system cannot know the
	// user function's semantics, so correction is user logic.
	Correct(result float64, p float64) float64
}

// RemovableState is implemented by states that additionally support
// removing a previously-added value — the primitive needed by the
// inter-iteration delta maintenance when the binomial resize shrinks a
// resample (§4.1). States that cannot remove force a rebuild.
type RemovableState interface {
	Remove(value float64) error
}

// BatchRemovableState is implemented by states that can remove a whole
// batch of previously-added values in one call — one interface dispatch
// per growth generation instead of one per item, the removal-side twin
// of Update's []float64 batches. RemoveValues prefers it over
// per-value RemovableState.Remove.
type BatchRemovableState interface {
	RemoveBatch(values []float64) error
}

// RemoveValues removes every value of vs from state, using the batch
// entry point when available and falling back to per-value Remove.
// handled is false (with a nil error) when the state supports neither —
// the caller must rebuild, as delta maintenance does.
func RemoveValues(state State, vs []float64) (handled bool, err error) {
	if br, ok := state.(BatchRemovableState); ok {
		return true, br.RemoveBatch(vs)
	}
	if rem, ok := state.(RemovableState); ok {
		for _, v := range vs {
			if err := rem.Remove(v); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	return false, nil
}

// ErrBadState is returned when an IncrementalReducer is handed a state of
// the wrong concrete type.
var ErrBadState = errors.New("mr: state has wrong type for this reducer")

// ErrBadInput is returned when Update receives an input that is neither a
// compatible State nor a raw value.
var ErrBadInput = errors.New("mr: update input is neither state nor value")

// UpdateAll folds a slice of raw values into state. It offers the whole
// slice to r.Update first — one interface call (and one boxing
// allocation) per batch for reducers that accept []float64, which is
// what makes the delta-maintenance hot path allocation-free — and falls
// back to the per-value loop for reducers that return ErrBadInput on
// batches. The two paths are equivalent by Update's batch contract.
func UpdateAll(r IncrementalReducer, state State, values []float64) (State, error) {
	if len(values) == 0 {
		return state, nil
	}
	next, err := r.Update(state, values)
	if err == nil {
		return next, nil
	}
	if !errors.Is(err, ErrBadInput) {
		return nil, err
	}
	for _, v := range values {
		state, err = r.Update(state, v)
		if err != nil {
			return nil, err
		}
	}
	return state, nil
}

// LaneUpdater is implemented by reducers that can fold several
// independent (state, batch) pairs side by side — the cross-state twin
// of Update's []float64 batches. A moment update is a short chain of
// dependent arithmetic, so one state alone is bound by that chain's
// latency; a few distinct states stepped in the same loop are not.
// UpdateLanes must leave states[k] exactly as Update(states[k],
// batches[k]) would — same slice order, same arithmetic, bit for bit —
// for any number of states, batches of unequal length and empty ones;
// only the interleaving across states is the implementation's to choose.
// The capability also promises that Initialize(key, values) leaves the
// state Initialize(key, nil) followed by Update(values) does, so a
// caller building several fresh states (SSABE's phase 1) can fold them
// abreast too.
type LaneUpdater interface {
	UpdateLanes(states []State, batches [][]float64) error
}

// UpdateLanes folds batches[k] into states[k] for every k, replacing
// states[k] with the state Update returns. The states must be pairwise
// distinct. Reducers implementing LaneUpdater take the whole group in one
// call; every other reducer gets the loop over UpdateAll, which is what
// the capability is defined to equal. On error the group is abandoned:
// states before the failing one have been folded, later ones not.
func UpdateLanes(r IncrementalReducer, states []State, batches [][]float64) error {
	if lu, ok := r.(LaneUpdater); ok {
		return lu.UpdateLanes(states, batches)
	}
	for k := range states {
		next, err := UpdateAll(r, states[k], batches[k])
		if err != nil {
			return err
		}
		states[k] = next
	}
	return nil
}

// MultisetReducer is implemented by reducers whose state depends only on
// the multiset of a batch: Initialize over any permutation of values,
// and Update with any permutation of a []float64 batch, leave a state
// bit-identical — every later Finalize, Remove and Update included. An
// order-statistic multiset qualifies; a floating-point accumulator does
// not (its rounding follows the fold order), so the moment reducers must
// not implement it. The engine may then present a batch sorted and
// counted — strictly ascending distinct values, counts[i] copies of
// distinct[i], zero counts allowed — instead of in the order it was
// drawn, and the counted methods must leave exactly the state Initialize
// and Update would leave given the same multiset as a slice. Neither
// argument is retained or modified. The promise covers the batches Rank
// agrees to sort: no NaN, and not +0 beside −0.
type MultisetReducer interface {
	InitializeCounted(key string, distinct []float64, counts []uint32) (State, error)
	UpdateCounted(state State, distinct []float64, counts []uint32) (State, error)
}

// Ranking is a batch source — a Δs, SSABE's pilot — sorted once, so that
// each bootstrap resample drawn from it by position reaches a
// MultisetReducer for one counter increment per draw (counts[Of[p]]++)
// instead of one sort per resample: the reducer's counted methods take
// Distinct and the counts. A ranking belongs to no reducer — every
// MultisetReducer folding resamples of the source may read it — and it
// is read-only after Rank, safe to share between workers; the counters
// — one per distinct value, zeroed by the caller between resamples —
// are the caller's per-worker scratch.
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

// Part returns the ranking of source[lo:hi], where rk ranks source: the
// distinct values the part holds, in rk's order, so the same Ranking
// Rank would return for the part — found in one pass, with no sort.
func (rk *Ranking) Part(lo, hi int) *Ranking {
	// next[d] is 1 + the part's rank of rk's rank d, or 0 if the part
	// lacks it.
	next := make([]uint32, len(rk.Distinct))
	for _, d := range rk.Of[lo:hi] {
		next[d] = 1
	}
	distinct := make([]float64, 0, len(rk.Distinct))
	for d, held := range next {
		if held != 0 {
			distinct = append(distinct, rk.Distinct[d])
			next[d] = uint32(len(distinct))
		}
	}
	of := make([]uint32, hi-lo)
	for j, d := range rk.Of[lo:hi] {
		of[j] = next[d] - 1
	}
	return &Ranking{Distinct: distinct, Of: of}
}

// InitializeOrUpdate folds values into state, creating a fresh state via
// Initialize when state is nil. This is the reuse pattern of maintained
// queries over continuously ingested data: the same incremental state is
// grown batch after batch instead of being recomputed, so each refresh
// costs only the delta. A nil state with no values stays nil (there is
// nothing to summarise yet).
func InitializeOrUpdate(r IncrementalReducer, key string, state State, values []float64) (State, error) {
	if state == nil {
		if len(values) == 0 {
			return nil, nil
		}
		return r.Initialize(key, values)
	}
	return UpdateAll(r, state, values)
}

// Correctable wraps a user correction function.
type Correctable func(result, p float64) float64

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
