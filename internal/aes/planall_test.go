package aes

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/simcost"
	"repro/internal/stats"
	"repro/internal/workload"
)

// countingPlain is a plainReducer that counts the Initialize, Update
// and Remove calls it serves, so a statistic folded into a resample it
// does not read shows.
type countingPlain struct {
	mr.IncrementalReducer
	calls *atomic.Int64
}

func (r countingPlain) Initialize(key string) (mr.State, error) {
	r.calls.Add(1)
	return r.IncrementalReducer.Initialize(key)
}

func (r countingPlain) Update(state mr.State, values []float64) (mr.State, error) {
	r.calls.Add(1)
	return r.IncrementalReducer.Update(state, values)
}

func (r countingPlain) Remove(state mr.State, values []float64) error {
	r.calls.Add(1)
	return r.IncrementalReducer.Remove(state, values)
}

// TestPlanAllEqualsSSABEOneByOne: planning a query's statistics with one
// SSABE gives each statistic that does not declare a plug-in error the
// plan its own SSABE gives — B, N, UseFull, the curve, the phase-1 trace
// and every phase-2 point, floats by bits — and charges the modelled
// cost those SSABEs one by one add up to, at every Parallelism: for
// statistics that stop phase 1 at different B, for quantiles sharing
// one ranking (and, in phase 2, one count vector per resample), for the
// moment reducers, and beside a reducer that has no lanes and no
// ranking, whose calls are counted. A mean or a sum, which declare
// theirs, keep their SSABE's phase-1 B and trace and take the closed
// form's N (checkPlugIn). The pilots are Zipf; Gaussian, whose values are
// all distinct; one holding −0 but no +0, which is ranked; and one
// holding both, which is not, so its segments are ranked on their own.
func TestPlanAllEqualsSSABEOneByOne(t *testing.T) {
	zipf, err := workload.NumericSpec{Dist: workload.Zipf, N: 4000, Seed: 71}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	withZeros := func(neg, pos bool) []float64 {
		xs := pilotData(4000, 73)
		for i := range xs {
			switch {
			case i%40 == 0 && neg:
				xs[i] = math.Copysign(0, -1)
			case i%40 == 20 && pos:
				xs[i] = 0
			}
		}
		return xs
	}
	negZero, bothZeros := withZeros(true, false), withZeros(true, true)
	p50Job, err := jobs.ByName("p50")
	if err != nil {
		t.Fatal(err)
	}
	if mr.Rank(p50Job.Reducer, negZero) == nil || mr.Rank(p50Job.Reducer, bothZeros) != nil {
		t.Fatal("the −0 pilot must rank and the ±0 pilot must not")
	}
	var calls atomic.Int64
	reducer := func(name string) mr.IncrementalReducer {
		if name == "counting-mean" {
			return countingPlain{jobs.Mean().Reducer, &calls}
		}
		job, err := jobs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return job.Reducer
	}
	for _, c := range []struct {
		name  string
		pilot []float64
		sets  [][]string
	}{
		{"zipf", zipf, [][]string{
			{"mean", "p50", "count"},
			{"p50", "p95", "p99"},
			{"mean", "sum", "variance", "stddev"},
			{"p50", "counting-mean", "mean"},
		}},
		{"gaussian", pilotData(4000, 74), [][]string{{"p50", "p95", "p99"}}},
		{"−0", negZero, [][]string{{"p50", "p95", "p99"}, {"p50", "counting-mean", "mean"}}},
		{"±0", bothZeros, [][]string{{"p50", "p95", "p99"}}},
	} {
		pilot := c.pilot
		for _, set := range c.sets {
			for _, seed := range []uint64{1, 4} {
				cfgs := make([]Config, len(set))
				for i, name := range set {
					cfgs[i] = Config{Reducer: reducer(name), Key: name, Sigma: 0.02, Seed: seed}
				}
				for _, par := range []int{1, 2, 4} {
					where := fmt.Sprintf("%s pilot: %s seed %d parallelism %d", c.name, strings.Join(set, "+"), seed, par)
					var wantCost simcost.Snapshot
					want := make([]Plan, len(cfgs))
					calls.Store(0)
					for i, cfg := range cfgs {
						metrics := &simcost.Metrics{}
						cfg.Metrics, cfg.Parallelism = metrics, par
						if want[i], err = SSABE(pilot, 10_000_000, cfg); err != nil {
							t.Fatalf("%s: %s alone: %v", where, set[i], err)
						}
						if _, plugIn := cfg.Reducer.(mr.PlugInReducer); !plugIn {
							wantCost = wantCost.Add(metrics.Snapshot())
						}
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
						if _, plugIn := cfgs[i].Reducer.(mr.PlugInReducer); plugIn {
							checkPlugIn(t, where+": "+set[i], got[i], want[i], pilot, 0.02, 10_000_000)
						} else if planFingerprint(got[i]) != planFingerprint(want[i]) {
							t.Errorf("%s: %s planned B=%d N=%d full=%v together, B=%d N=%d full=%v alone",
								where, set[i], got[i].B, got[i].N, got[i].UseFull, want[i].B, want[i].N, want[i].UseFull)
						}
					}
					if cost := metrics.Snapshot(); cost != wantCost {
						t.Errorf("%s: cost %+v together, %+v alone", where, cost, wantCost)
					}
					if n := calls.Load(); n != wantCalls {
						t.Errorf("%s: the counting reducer served %d calls together, %d alone", where, n, wantCalls)
					}
					if set[0] == "mean" && set[2] == "count" && len(bs) < 2 {
						t.Errorf("%s: every statistic stopped phase 1 at the same B", where)
					}
				}
			}
		}
	}
}

// checkPlugIn checks the plan PlanAll gave a statistic that declares
// its plug-in error against the SSABE of its own, alone: the same
// phase-1 B and trace, N = stats.TheoreticalSampleSize(stats.CV(pilot),
// σ) on the curve cv₁/√n, no phase-2 point, and the B×N ≥ N cutoff.
func checkPlugIn(t *testing.T, where string, got, alone Plan, pilot []float64, sigma float64, totalN int64) {
	t.Helper()
	cv, err := stats.CV(pilot)
	if err != nil {
		t.Fatal(err)
	}
	n, err := stats.TheoreticalSampleSize(cv, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if got.B != alone.B || fmt.Sprint(got.BTrace) != fmt.Sprint(alone.BTrace) {
		t.Errorf("%s: B=%d trace %v, its SSABE's phase 1 B=%d trace %v", where, got.B, got.BTrace, alone.B, alone.BTrace)
	}
	if got.N != n || got.Curve != (stats.CVCurve{B: cv}) || got.Points != nil {
		t.Errorf("%s: N=%d curve %+v points %v, want the plug-in N=%d on cv₁ %v and no phase-2 point", where, got.N, got.Curve, got.Points, n, cv)
	}
	if got.UseFull != (int64(got.B)*int64(got.N) >= totalN) {
		t.Errorf("%s: UseFull=%v at B=%d N=%d of %d", where, got.UseFull, got.B, got.N, totalN)
	}
}

// countingPlugIn is the mean reducer, plug-in error declared, counting
// the Initialize, Update and Remove calls it serves. It has no lanes, so
// phase 1 folds each resample it reads with one Initialize and one
// Update: 2B calls in all.
type countingPlugIn struct{ countingPlain }

func (r countingPlugIn) PlugInCV(pilot []float64) float64 {
	return r.IncrementalReducer.(mr.PlugInReducer).PlugInCV(pilot)
}

// TestPlanAllRunsNoPhase2ForAPlugIn: a statistic that declares its
// plug-in error is folded by phase 1 only — its reducer serves exactly
// the 2B calls of the B resamples phase 1 reads, at every Parallelism,
// alone and beside a quantile and a count, which still run phase 2 —
// while its SSABE alone folds phase 2's resamples too.
func TestPlanAllRunsNoPhase2ForAPlugIn(t *testing.T) {
	zipf, err := workload.NumericSpec{Dist: workload.Zipf, N: 4000, Seed: 78}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	mean := countingPlugIn{countingPlain{jobs.Mean().Reducer, &calls}}
	for _, c := range []struct {
		name  string
		pilot []float64
	}{{"gaussian", pilotData(4000, 79)}, {"zipf", zipf}} {
		for _, set := range [][]string{{"mean"}, {"mean", "p50", "count"}} {
			for _, par := range []int{1, 3} {
				where := fmt.Sprintf("%s pilot: %s parallelism %d", c.name, strings.Join(set, "+"), par)
				cfgs := make([]Config, len(set))
				for i, name := range set {
					red := mr.IncrementalReducer(mean)
					if name != "mean" {
						job, err := jobs.ByName(name)
						if err != nil {
							t.Fatal(err)
						}
						red = job.Reducer
					}
					cfgs[i] = Config{Reducer: red, Key: name, Sigma: 0.05, Seed: 6, Parallelism: par}
				}
				calls.Store(0)
				plans, err := PlanAll(c.pilot, 10_000_000, cfgs)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if n := calls.Swap(0); n != 2*int64(plans[0].B) {
					t.Errorf("%s: the mean served %d calls, want phase 1's 2×%d", where, n, plans[0].B)
				}
				alone, err := SSABE(c.pilot, 10_000_000, cfgs[0])
				if err != nil {
					t.Fatalf("%s: alone: %v", where, err)
				}
				if n := calls.Swap(0); n <= 2*int64(alone.B) {
					t.Errorf("%s: the mean served %d calls to its SSABE alone, want phase 2's beyond phase 1's 2×%d", where, n, alone.B)
				}
				checkPlugIn(t, where, plans[0], alone, c.pilot, 0.05, 10_000_000)
			}
		}
	}
}

// countingQuantile is a quantile reducer that counts every call that
// builds or grows a state, by counts or by values.
type countingQuantile struct {
	mr.IncrementalReducer
	counted mr.MultisetReducer
	calls   *atomic.Int64
}

func newCountingQuantile(t *testing.T, name string, calls *atomic.Int64) countingQuantile {
	job, err := jobs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return countingQuantile{job.Reducer, job.Reducer.(mr.MultisetReducer), calls}
}

func (r countingQuantile) Initialize(key string) (mr.State, error) {
	r.calls.Add(1)
	return r.IncrementalReducer.Initialize(key)
}

func (r countingQuantile) Update(state mr.State, values []float64) (mr.State, error) {
	r.calls.Add(1)
	return r.IncrementalReducer.Update(state, values)
}

func (r countingQuantile) UpdateCounted(state mr.State, distinct []float64, counts []uint32) (mr.State, error) {
	r.calls.Add(1)
	return r.counted.UpdateCounted(state, distinct, counts)
}

func (r countingQuantile) FinalizeCounted(distinct []float64, counts []uint32, n int64) (float64, error) {
	return r.counted.FinalizeCounted(distinct, counts, n)
}

// TestPlanAllOverARankedPilotBuildsNoQuantileState: over a ranked pilot
// a quantile is planned from counts alone — phase 1 finalizes each
// resample's counts, phase 2 keeps one count vector per resample — so
// PlanAll never asks a quantile reducer for a state, by counts or by
// values, at any Parallelism, and plans what the reducers themselves
// plan. Over a pilot that is not ranked, it does ask.
func TestPlanAllOverARankedPilotBuildsNoQuantileState(t *testing.T) {
	zipf, err := workload.NumericSpec{Dist: workload.Zipf, N: 4000, Seed: 75}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bothZeros := pilotData(4000, 76)
	bothZeros[10], bothZeros[20] = 0, math.Copysign(0, -1)
	for _, c := range []struct {
		name   string
		pilot  []float64
		ranked bool
	}{{"zipf", zipf, true}, {"gaussian", pilotData(4000, 77), true}, {"±0", bothZeros, false}} {
		for _, par := range []int{1, 3} {
			var calls atomic.Int64
			plan := func(names []string, red func(string) mr.IncrementalReducer) []Plan {
				cfgs := make([]Config, len(names))
				for i, name := range names {
					cfgs[i] = Config{Reducer: red(name), Key: name, Sigma: 0.02, Seed: 2, Parallelism: par}
				}
				plans, err := PlanAll(c.pilot, 10_000_000, cfgs)
				if err != nil {
					t.Fatalf("%s parallelism %d: %v", c.name, par, err)
				}
				return plans
			}
			names := []string{"mean", "p50", "p95"}
			want := plan(names, func(name string) mr.IncrementalReducer {
				job, err := jobs.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				return job.Reducer
			})
			got := plan(names, func(name string) mr.IncrementalReducer {
				if name == "mean" {
					return jobs.Mean().Reducer
				}
				return newCountingQuantile(t, name, &calls)
			})
			for i := range got {
				if planFingerprint(got[i]) != planFingerprint(want[i]) {
					t.Errorf("%s parallelism %d: %s planned differently through the counting reducer", c.name, par, names[i])
				}
			}
			if n := calls.Load(); (n == 0) != c.ranked {
				t.Errorf("%s parallelism %d: the quantile reducers built or grew %d states", c.name, par, n)
			}
		}
	}
}

// failingAt is a mean reducer that fails in one place: Initialize, which
// phase 1 reaches, or Remove, which only phase 2's resizes do.
type failingAt struct {
	mr.IncrementalReducer
	initErr, removeErr error
}

func (r failingAt) Initialize(key string) (mr.State, error) {
	if r.initErr != nil {
		return nil, r.initErr
	}
	return r.IncrementalReducer.Initialize(key)
}

func (r failingAt) Remove(state mr.State, values []float64) error {
	if r.removeErr != nil {
		return r.removeErr
	}
	return r.IncrementalReducer.Remove(state, values)
}

// TestPlanAllFirstErrorInStatisticOrder: when statistics fail, PlanAll
// fails with the first one's error in statistic order, as the SSABEs one
// by one would — whichever phase each fails in.
func TestPlanAllFirstErrorInStatisticOrder(t *testing.T) {
	pilot := pilotData(2000, 72)
	mean := jobs.Mean().Reducer
	errPhase1, errPhase2 := errors.New("fails phase 1"), errors.New("fails phase 2")
	inPhase1 := failingAt{IncrementalReducer: mean, initErr: errPhase1}
	inPhase2 := failingAt{IncrementalReducer: mean, removeErr: errPhase2}
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
