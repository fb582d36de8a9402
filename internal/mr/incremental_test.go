package mr

import (
	"errors"
	"testing"
)

// meanState is a minimal IncrementalReducer state for tests: tracks
// sum/count.
type meanState struct {
	sum float64
	n   int64
}

type meanReducer struct{}

func (meanReducer) Initialize(string) (State, error) { return &meanState{}, nil }

func (meanReducer) Update(state State, values []float64) (State, error) {
	st, ok := state.(*meanState)
	if !ok {
		return nil, ErrBadState
	}
	for _, v := range values {
		st.sum += v
		st.n++
	}
	return st, nil
}

func (meanReducer) Remove(state State, values []float64) error {
	st, ok := state.(*meanState)
	if !ok {
		return ErrBadState
	}
	for _, v := range values {
		st.sum -= v
		st.n--
	}
	return nil
}

func (meanReducer) Merge(state, other State) (State, error) {
	st, ok := state.(*meanState)
	o, ok2 := other.(*meanState)
	if !ok || !ok2 {
		return nil, ErrBadState
	}
	st.sum += o.sum
	st.n += o.n
	return st, nil
}

func (meanReducer) Finalize(state State) (float64, error) {
	st, ok := state.(*meanState)
	if !ok {
		return 0, ErrBadState
	}
	if st.n == 0 {
		return 0, nil
	}
	return st.sum / float64(st.n), nil
}

func (meanReducer) Correct(result, p float64) float64 { return IdentityCorrect(result, p) }

func TestIncrementalReducerContract(t *testing.T) {
	r := meanReducer{}
	st, err := r.Initialize("k")
	if err != nil {
		t.Fatal(err)
	}
	// Update with batches of raw values.
	for _, batch := range [][]float64{{1, 2, 3}, {6, 7}} {
		if st, err = r.Update(st, batch); err != nil {
			t.Fatal(err)
		}
	}
	// Merge another state (the shared-block path), which stays as it was.
	other, _ := r.Initialize("k")
	if other, err = r.Update(other, []float64{8, 10}); err != nil {
		t.Fatal(err)
	}
	if st, err = r.Merge(st, other); err != nil {
		t.Fatal(err)
	}
	if o := other.(*meanState); o.sum != 18 || o.n != 2 {
		t.Fatalf("Merge modified its argument: %+v", o)
	}
	// Remove inverts a batch.
	if err := r.Remove(st, []float64{7}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Finalize(st)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 { // (1+2+3+6+8+10)/6
		t.Fatalf("mean = %v, want 5", got)
	}
}

func TestUpdateAll(t *testing.T) {
	// One Update call folds a whole batch into an empty state.
	r := meanReducer{}
	st, _ := r.Initialize("k")
	st, err := r.Update(st, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.Finalize(st)
	if got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
}

func TestUpdateRejectsWrongTypes(t *testing.T) {
	r := meanReducer{}
	if _, err := r.Update("not-a-state", []float64{1}); !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
	st, _ := r.Initialize("k")
	if _, err := r.Merge(st, "not-a-state"); !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
}

func TestCorrections(t *testing.T) {
	if IdentityCorrect(42, 0.01) != 42 {
		t.Fatal("identity correction changed result")
	}
	if ScaleCorrect(42, 0.5) != 84 {
		t.Fatal("scale correction wrong")
	}
	if ScaleCorrect(42, 0) != 42 {
		t.Fatal("scale correction must ignore p=0")
	}
}

// laneReducer records that a whole group reached UpdateLanes.
type laneReducer struct {
	meanReducer
	groups *int
}

func (r laneReducer) UpdateLanes(states []State, batches [][]float64) error {
	*r.groups++
	for k, st := range states {
		st.(*meanState).sum += float64(len(batches[k])) // not the mean fold: the test sees which path ran
	}
	return nil
}

// failingReducer fails every Update.
type failingReducer struct{ meanReducer }

var errBoom = errors.New("boom")

func (failingReducer) Update(State, []float64) (State, error) { return nil, errBoom }

func TestUpdateLanesRouting(t *testing.T) {
	batches := [][]float64{{1, 2}, nil, {3}}
	fresh := func() []State { return []State{&meanState{sum: 10}, &meanState{sum: 20}, &meanState{sum: 30}} }
	sums := func(states []State) [3]float64 {
		return [3]float64{states[0].(*meanState).sum, states[1].(*meanState).sum, states[2].(*meanState).sum}
	}

	// A reducer with the capability takes the group in one call.
	groups := 0
	states := fresh()
	if err := UpdateLanes(laneReducer{groups: &groups}, states, batches); err != nil {
		t.Fatal(err)
	}
	if groups != 1 || sums(states) != [3]float64{12, 20, 31} {
		t.Fatalf("lane path: %d group calls, sums %v", groups, sums(states))
	}

	// One without it gets Update per state, and an empty lane is left
	// alone.
	states = fresh()
	if err := UpdateLanes(meanReducer{}, states, batches); err != nil {
		t.Fatal(err)
	}
	if sums(states) != [3]float64{13, 20, 33} || states[1].(*meanState).n != 0 {
		t.Fatalf("generic path: sums %v, empty lane %+v", sums(states), states[1])
	}

	// The first failing state's error surfaces, past an empty lane.
	if err := UpdateLanes(failingReducer{}, fresh(), [][]float64{nil, {1}}); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
}
