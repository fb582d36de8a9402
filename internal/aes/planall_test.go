package aes

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// frozenReducer hides every optional capability of the reducer it wraps
// — no lanes, no ranking — and wraps its states so that they cannot
// remove either: delta maintenance rebuilds them. It counts the
// Initialize and Update calls it serves, so a statistic folded into a
// resample it does not read shows.
type frozenReducer struct {
	mr.IncrementalReducer
	calls *atomic.Int64
}

type frozenState struct{ st mr.State }

func (r frozenReducer) Initialize(key string, values []float64) (mr.State, error) {
	r.calls.Add(1)
	st, err := r.IncrementalReducer.Initialize(key, values)
	if err != nil {
		return nil, err
	}
	return &frozenState{st}, nil
}

func (r frozenReducer) Update(state mr.State, input any) (mr.State, error) {
	r.calls.Add(1)
	fs, ok := state.(*frozenState)
	if !ok {
		return nil, mr.ErrBadState
	}
	st, err := r.IncrementalReducer.Update(fs.st, input)
	if err != nil {
		return nil, err
	}
	fs.st = st
	return fs, nil
}

func (r frozenReducer) Finalize(state mr.State) (float64, error) {
	fs, ok := state.(*frozenState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return r.IncrementalReducer.Finalize(fs.st)
}

// TestPlanAllEqualsSSABEOneByOne: planning a query's statistics with one
// SSABE gives each the plan its own SSABE gives — B, N, UseFull, the
// curve, the phase-1 trace and every phase-2 point, floats by bits —
// and charges the modelled cost the SSABEs one by one add up to, at
// every Parallelism: for statistics that stop phase 1 at different B,
// for quantiles sharing one ranking, for the moment reducers, and beside
// a reducer that has no lanes, no ranking and no Remove, whose states
// are rebuilt and whose calls are counted.
func TestPlanAllEqualsSSABEOneByOne(t *testing.T) {
	pilot, err := workload.NumericSpec{Dist: workload.Zipf, N: 4000, Seed: 71}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	reducer := func(name string) mr.IncrementalReducer {
		if name == "frozen-mean" {
			return frozenReducer{jobs.Mean().Reducer, &calls}
		}
		job, err := jobs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return job.Reducer
	}
	for _, set := range [][]string{
		{"mean", "p50", "count"},
		{"p50", "p95", "p99"},
		{"mean", "sum", "variance", "stddev"},
		{"p50", "frozen-mean", "mean"},
	} {
		for _, seed := range []uint64{1, 4} {
			cfgs := make([]Config, len(set))
			for i, name := range set {
				cfgs[i] = Config{Reducer: reducer(name), Key: name, Sigma: 0.02, Seed: seed}
			}
			for _, par := range []int{1, 2, 4} {
				where := fmt.Sprintf("%s seed %d parallelism %d", strings.Join(set, "+"), seed, par)
				var wantCost simcost.Snapshot
				want := make([]Plan, len(cfgs))
				calls.Store(0)
				for i, cfg := range cfgs {
					metrics := &simcost.Metrics{}
					cfg.Metrics, cfg.Parallelism = metrics, par
					if want[i], err = SSABE(pilot, 10_000_000, cfg); err != nil {
						t.Fatalf("%s: %s alone: %v", where, set[i], err)
					}
					wantCost = wantCost.Add(metrics.Snapshot())
				}
				wantCalls := calls.Swap(0)

				metrics := &simcost.Metrics{}
				together := make([]Config, len(cfgs))
				for i, cfg := range cfgs {
					cfg.Metrics, cfg.Parallelism = metrics, par
					together[i] = cfg
				}
				got, err := PlanAll(pilot, 10_000_000, together)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				bs := map[int]bool{}
				for i := range got {
					bs[want[i].B] = true
					if planFingerprint(got[i]) != planFingerprint(want[i]) {
						t.Errorf("%s: %s planned B=%d N=%d full=%v together, B=%d N=%d full=%v alone",
							where, set[i], got[i].B, got[i].N, got[i].UseFull, want[i].B, want[i].N, want[i].UseFull)
					}
				}
				if cost := metrics.Snapshot(); cost != wantCost {
					t.Errorf("%s: cost %+v together, %+v alone", where, cost, wantCost)
				}
				if n := calls.Load(); n != wantCalls {
					t.Errorf("%s: the frozen reducer served %d calls together, %d alone", where, n, wantCalls)
				}
				if set[0] == "mean" && set[2] == "count" && len(bs) < 2 {
					t.Errorf("%s: every statistic stopped phase 1 at the same B", where)
				}
			}
		}
	}
}

// failingAt is a mean reducer that fails in one place: Initialize, which
// phase 1 reaches, or Update, which only phase 2 does.
type failingAt struct {
	mr.IncrementalReducer
	initErr, updateErr error
}

func (r failingAt) Initialize(key string, values []float64) (mr.State, error) {
	if r.initErr != nil {
		return nil, r.initErr
	}
	return r.IncrementalReducer.Initialize(key, values)
}

func (r failingAt) Update(state mr.State, input any) (mr.State, error) {
	if r.updateErr != nil {
		return nil, r.updateErr
	}
	return r.IncrementalReducer.Update(state, input)
}

// TestPlanAllFirstErrorInStatisticOrder: when statistics fail, PlanAll
// fails with the first one's error in statistic order, as the SSABEs one
// by one would — whichever phase each fails in.
func TestPlanAllFirstErrorInStatisticOrder(t *testing.T) {
	pilot := pilotData(2000, 72)
	mean := jobs.Mean().Reducer
	errPhase1, errPhase2 := errors.New("fails phase 1"), errors.New("fails phase 2")
	inPhase1 := failingAt{IncrementalReducer: mean, initErr: errPhase1}
	inPhase2 := failingAt{IncrementalReducer: mean, updateErr: errPhase2}
	for _, c := range []struct {
		name string
		reds []mr.IncrementalReducer
		want error
	}{
		{"phase 2 before phase 1", []mr.IncrementalReducer{mean, inPhase2, inPhase1}, errPhase2},
		{"phase 1 before phase 2", []mr.IncrementalReducer{inPhase1, mean, inPhase2}, errPhase1},
		{"phase 2 only", []mr.IncrementalReducer{mean, mean, inPhase2}, errPhase2},
		{"no reducer first", []mr.IncrementalReducer{mean, nil, inPhase2}, nil},
	} {
		for _, par := range []int{1, 2, 4} {
			cfgs := make([]Config, len(c.reds))
			for i, red := range c.reds {
				cfgs[i] = Config{Reducer: red, Sigma: 0.02, Seed: 5, Parallelism: par}
			}
			_, err := PlanAll(pilot, 10_000_000, cfgs)
			if c.want == nil {
				if err == nil || !strings.Contains(err.Error(), "Reducer is required") {
					t.Errorf("%s at parallelism %d: err = %v, want the missing reducer's", c.name, par, err)
				}
				continue
			}
			if !errors.Is(err, c.want) {
				t.Errorf("%s at parallelism %d: err = %v, want %v", c.name, par, err, c.want)
			}
		}
	}
}
