package mr

import (
	"errors"
	"testing"
)

// meanState is a minimal IncrementalReducer for tests: tracks sum/count.
type meanState struct {
	sum float64
	n   int64
}

type meanReducer struct{}

func (meanReducer) Initialize(key string, values []float64) (State, error) {
	st := &meanState{}
	for _, v := range values {
		st.sum += v
		st.n++
	}
	return st, nil
}

func (meanReducer) Update(state State, input any) (State, error) {
	st, ok := state.(*meanState)
	if !ok {
		return nil, ErrBadState
	}
	switch x := input.(type) {
	case *meanState:
		st.sum += x.sum
		st.n += x.n
	case float64:
		st.sum += x
		st.n++
	default:
		return nil, ErrBadInput
	}
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
	st, err := r.Initialize("k", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Update with a raw value.
	st, err = r.Update(st, 6.0)
	if err != nil {
		t.Fatal(err)
	}
	// Update with another state (the delta-maintenance merge path).
	other, _ := r.Initialize("k", []float64{8, 10})
	st, err = r.Update(st, other)
	if err != nil {
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
	r := meanReducer{}
	st, _ := r.Initialize("k", nil)
	st, err := UpdateAll(r, st, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := r.Finalize(st)
	if got != 4 {
		t.Fatalf("mean = %v, want 4", got)
	}
}

func TestInitializeOrUpdate(t *testing.T) {
	r := meanReducer{}
	// nil state + no values: still nothing to summarise.
	st, err := InitializeOrUpdate(r, "k", nil, nil)
	if err != nil || st != nil {
		t.Fatalf("empty init: state %v, err %v", st, err)
	}
	// First batch initialises.
	st, err = InitializeOrUpdate(r, "k", st, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Later batches update the SAME state — the maintained-query reuse
	// pattern: cost proportional to the delta, not the history.
	st, err = InitializeOrUpdate(r, "k", st, []float64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Finalize(st)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("maintained mean = %v, want 3", got)
	}
	// Updating with an empty delta is a no-op, not an error.
	st2, err := InitializeOrUpdate(r, "k", st, nil)
	if err != nil || st2 != st {
		t.Fatalf("empty delta: state %v, err %v", st2, err)
	}
}

func TestUpdateRejectsWrongTypes(t *testing.T) {
	r := meanReducer{}
	if _, err := r.Update("not-a-state", 1.0); !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
	st, _ := r.Initialize("k", nil)
	if _, err := r.Update(st, "weird"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
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
