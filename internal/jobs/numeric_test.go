package jobs

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mr"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fold is the state red builds over values: an empty state, then one
// Update.
func fold(t *testing.T, red mr.IncrementalReducer, values []float64) mr.State {
	t.Helper()
	st, err := red.Initialize("k")
	if err == nil {
		st, err = red.Update(st, values)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runReducer(t *testing.T, n Numeric, values []float64) float64 {
	t.Helper()
	got, err := n.Reducer.Finalize(fold(t, n.Reducer, values))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestReducersMatchStatistics(t *testing.T) {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 500, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	q25, err := Quantile(0.25)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Numeric{Mean(), Sum(), Count(), Variance(), StdDev(), Median(), q25, Proportion()}
	for _, job := range cases {
		gotReducer := runReducer(t, job, xs)
		gotStat, err := job.Statistic(xs)
		if err != nil {
			t.Fatalf("%s statistic: %v", job.Name, err)
		}
		if math.Abs(gotReducer-gotStat) > 1e-8*(1+math.Abs(gotStat)) {
			t.Fatalf("%s: reducer %v != statistic %v", job.Name, gotReducer, gotStat)
		}
	}
}

// contractNames are the statistics ByName resolves, each a reducer the
// contract tests hold to the mr.IncrementalReducer methods.
var contractNames = []string{"mean", "sum", "count", "variance", "stddev", "median", "proportion", "p95"}

// contractReducers resolves contractNames.
func contractReducers(t *testing.T) []Numeric {
	t.Helper()
	out := make([]Numeric, len(contractNames))
	for i, name := range contractNames {
		job, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = job
	}
	return out
}

// TestReducerIncrementalEqualsBatch: a state built over part of a
// batch, grown by Update and by Merge of another state, finalizes to the
// batch's result.
func TestReducerIncrementalEqualsBatch(t *testing.T) {
	xs, _ := workload.NumericSpec{Dist: workload.Uniform, N: 200, Seed: 4}.Generate()
	for _, job := range contractReducers(t) {
		red := job.Reducer
		batch := runReducer(t, job, xs)
		st, err := red.Update(fold(t, red, xs[:50]), xs[50:150])
		if err != nil {
			t.Fatal(err)
		}
		if st, err = red.Merge(st, fold(t, red, xs[150:])); err != nil {
			t.Fatal(err)
		}
		inc, err := red.Finalize(st)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batch-inc) > 1e-8*(1+math.Abs(batch)) {
			t.Fatalf("%s: incremental %v != batch %v", job.Name, inc, batch)
		}
	}
}

func TestReducerRemoveInvertsAdd(t *testing.T) {
	xs, _ := workload.NumericSpec{Dist: workload.Uniform, N: 100, Seed: 5}.Generate()
	for _, job := range contractReducers(t) {
		want := runReducer(t, job, xs)
		extra := []float64{3.25, -17, 42}
		st, err := job.Reducer.Update(fold(t, job.Reducer, xs), extra)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Reducer.Remove(st, extra); err != nil {
			t.Fatal(err)
		}
		got, err := job.Reducer.Finalize(st)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("%s: after remove %v != %v", job.Name, got, want)
		}
	}
}

func TestCorrections(t *testing.T) {
	if got := Sum().Reducer.Correct(10, 0.1); got != 100 {
		t.Fatalf("sum correction = %v, want 100", got)
	}
	if got := Count().Reducer.Correct(50, 0.5); got != 100 {
		t.Fatalf("count correction = %v, want 100", got)
	}
	if got := Mean().Reducer.Correct(10, 0.1); got != 10 {
		t.Fatalf("mean correction = %v, want 10", got)
	}
	if got := Median().Reducer.Correct(7, 0.01); got != 7 {
		t.Fatalf("median correction = %v, want 7", got)
	}
}

// TestPlugInDeclaredByMeanAndSumOnly: the mean, the sum and the
// proportion declare a plug-in error, the pilot's s/|x̄|, and the
// reducers that embed the moments' fold without being a mean do not.
func TestPlugInDeclaredByMeanAndSumOnly(t *testing.T) {
	pilot := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want, err := stats.CV(pilot)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []Numeric{Mean(), Sum(), Proportion(), Count(), Variance(), StdDev(), Median()} {
		r, ok := job.Reducer.(mr.PlugInReducer)
		if declares := job.Name == "mean" || job.Name == "sum" || job.Name == "proportion"; ok != declares {
			t.Errorf("%s: declares a plug-in error %v, want %v", job.Name, ok, declares)
			continue
		}
		if ok && r.PlugInCV(pilot) != want {
			t.Errorf("%s: plug-in cv %v, want %v", job.Name, r.PlugInCV(pilot), want)
		}
	}
	if cv := Mean().Reducer.(mr.PlugInReducer).PlugInCV([]float64{-1, 1}); !math.IsInf(cv, 1) {
		t.Errorf("a zero-mean pilot's plug-in cv is %v, want +Inf", cv)
	}
}

func TestQuantileValidation(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		if _, err := Quantile(q); err == nil {
			t.Fatalf("q=%v should error", q)
		}
	}
}

func TestMultisetRemoveAbsent(t *testing.T) {
	red := Median().Reducer
	st := fold(t, red, []float64{1, 2, 2})
	if err := red.Remove(st, []float64{5}); err == nil {
		t.Fatal("removing absent value should error")
	}
	if err := red.Remove(st, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := red.Remove(st, []float64{2}); err == nil {
		t.Fatal("third remove of 2 should error")
	}
}

func TestMultisetQuantileMatchesSorted(t *testing.T) {
	f := func(seed uint64) bool {
		xs, err := workload.NumericSpec{Dist: workload.Zipf, N: 60, Seed: seed}.Generate()
		if err != nil {
			return false
		}
		st := &multisetState{}
		if err := st.ms.AddBatch(xs); err != nil {
			return false
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
			got, err := st.ms.Quantile(q)
			if err != nil {
				return false
			}
			want, err := stats.Quantile(xs, q)
			if err != nil {
				return false
			}
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMultisetEmptyQuantile(t *testing.T) {
	red := Median().Reducer
	st, err := red.Initialize("k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := red.Finalize(st); err == nil {
		t.Fatal("empty quantile should error")
	}
}

func TestReducersRejectWrongStates(t *testing.T) {
	for _, job := range []Numeric{Mean(), Median()} {
		st, _ := job.Reducer.Initialize("k")
		_, errUpdate := job.Reducer.Update("bogus", []float64{1})
		_, errMerge := job.Reducer.Merge(st, "bogus")
		_, errFinalize := job.Reducer.Finalize("bogus")
		for _, err := range []error{errUpdate, job.Reducer.Remove("bogus", nil), errMerge, errFinalize} {
			if !errors.Is(err, mr.ErrBadState) {
				t.Fatalf("%s: err = %v", job.Name, err)
			}
		}
	}
}
