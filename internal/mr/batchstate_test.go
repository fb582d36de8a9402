package mr

import (
	"errors"
	"testing"
)

// sumState is a minimal state with configurable batch support, to pin
// UpdateAll/RemoveValues routing.
type sumState struct {
	sum          float64
	batchAdds    int
	batchRemoves int
	itemOps      int
}

func (s *sumState) Remove(v float64) error {
	s.sum -= v
	s.itemOps++
	return nil
}

type batchSumState struct{ sumState }

func (s *batchSumState) RemoveBatch(vs []float64) error {
	for _, v := range vs {
		s.sum -= v
	}
	s.batchRemoves++
	return nil
}

// sumReducer folds floats; batched handles []float64 in one call,
// loopOnly rejects batches so UpdateAll must fall back.
type sumReducer struct{ batched bool }

func (sumReducer) Initialize(key string, values []float64) (State, error) {
	st := &sumState{}
	for _, v := range values {
		st.sum += v
	}
	return st, nil
}

func (r sumReducer) Update(state State, input any) (State, error) {
	st, ok := state.(*sumState)
	if !ok {
		return nil, ErrBadState
	}
	switch x := input.(type) {
	case float64:
		st.sum += x
		st.itemOps++
	case []float64:
		if !r.batched {
			return nil, ErrBadInput
		}
		for _, v := range x {
			st.sum += v
		}
		st.batchAdds++
	default:
		return nil, ErrBadInput
	}
	return st, nil
}

func (sumReducer) Finalize(state State) (float64, error) {
	return state.(*sumState).sum, nil
}

func (sumReducer) Correct(result, p float64) float64 { return result }

func TestUpdateAllUsesBatchWhenSupported(t *testing.T) {
	st := &sumState{}
	out, err := UpdateAll(sumReducer{batched: true}, st, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st != out || st.sum != 6 {
		t.Fatalf("sum %v (state %p vs %p)", st.sum, st, out)
	}
	if st.batchAdds != 1 || st.itemOps != 0 {
		t.Fatalf("batch path not taken: %d batches, %d item ops", st.batchAdds, st.itemOps)
	}
}

func TestUpdateAllFallsBackPerValue(t *testing.T) {
	st := &sumState{}
	if _, err := UpdateAll(sumReducer{batched: false}, st, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if st.sum != 6 || st.itemOps != 3 || st.batchAdds != 0 {
		t.Fatalf("fallback loop not taken: sum %v, %d item ops, %d batches", st.sum, st.itemOps, st.batchAdds)
	}
	// Empty batch is a no-op, never an ErrBadInput probe.
	if _, err := UpdateAll(sumReducer{batched: false}, st, nil); err != nil {
		t.Fatal(err)
	}
}

// failingReducer returns a non-ErrBadInput error on batches; UpdateAll
// must surface it rather than silently retrying per value.
type failingReducer struct{ sumReducer }

var errBoom = errors.New("boom")

func (failingReducer) Update(state State, input any) (State, error) {
	if _, ok := input.([]float64); ok {
		return nil, errBoom
	}
	return failingReducer{}.sumReducer.Update(state, input)
}

func TestUpdateAllSurfacesBatchErrors(t *testing.T) {
	if _, err := UpdateAll(failingReducer{}, &sumState{}, []float64{1}); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

func TestRemoveValuesPrefersBatch(t *testing.T) {
	st := &batchSumState{sumState{sum: 10}}
	handled, err := RemoveValues(st, []float64{1, 2})
	if err != nil || !handled {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	if st.sum != 7 || st.batchRemoves != 1 || st.itemOps != 0 {
		t.Fatalf("batch remove not taken: %+v", st)
	}

	plain := &sumState{sum: 10}
	handled, err = RemoveValues(plain, []float64{1, 2})
	if err != nil || !handled {
		t.Fatalf("handled=%v err=%v", handled, err)
	}
	if plain.sum != 7 || plain.itemOps != 2 {
		t.Fatalf("per-value remove not taken: %+v", plain)
	}

	handled, err = RemoveValues(struct{}{}, []float64{1})
	if err != nil || handled {
		t.Fatalf("unsupported state: handled=%v err=%v, want false/nil (caller rebuilds)", handled, err)
	}
}

// laneSumReducer records that a whole group reached UpdateLanes.
type laneSumReducer struct {
	sumReducer
	groups *int
}

func (r laneSumReducer) UpdateLanes(states []State, batches [][]float64) error {
	*r.groups++
	for k, st := range states {
		for _, v := range batches[k] {
			st.(*sumState).sum += v
		}
	}
	return nil
}

func TestUpdateLanesRouting(t *testing.T) {
	batches := [][]float64{{1, 2}, nil, {3}}
	sums := func(states []State) [3]float64 {
		return [3]float64{states[0].(*sumState).sum, states[1].(*sumState).sum, states[2].(*sumState).sum}
	}
	want := [3]float64{13, 20, 33}

	// A reducer with the capability takes the group in one call.
	groups := 0
	states := []State{&sumState{sum: 10}, &sumState{sum: 20}, &sumState{sum: 30}}
	if err := UpdateLanes(laneSumReducer{sumReducer{batched: true}, &groups}, states, batches); err != nil {
		t.Fatal(err)
	}
	if groups != 1 || sums(states) != want {
		t.Fatalf("lane path: %d group calls, sums %v", groups, sums(states))
	}

	// One without it gets UpdateAll per state — batch or per-value as
	// the reducer allows — and an empty lane is left alone.
	for _, batched := range []bool{true, false} {
		states = []State{&sumState{sum: 10}, &sumState{sum: 20}, &sumState{sum: 30}}
		if err := UpdateLanes(sumReducer{batched: batched}, states, batches); err != nil {
			t.Fatal(err)
		}
		if sums(states) != want {
			t.Fatalf("generic path (batched=%v): sums %v", batched, sums(states))
		}
		if st := states[1].(*sumState); st.batchAdds != 0 || st.itemOps != 0 {
			t.Fatalf("empty lane was touched: %+v", st)
		}
	}

	// The first failing state's error surfaces; states before it are folded.
	states = []State{&sumState{}, &sumState{}}
	if err := UpdateLanes(failingReducer{}, states, [][]float64{nil, {1}}); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}
