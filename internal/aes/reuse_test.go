package aes

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/jobs"
	"repro/internal/workload"
)

// TestSSABEReusesPhase2Storage: once a call has parked its phase-2
// storage, the next SSABE of one mean over a 10 k Gaussian pilot at
// Parallelism 2 grows its replicates' generations into it and allocates
// under 1.5 MB — against 5.09 MB when every replicate allocated and
// zeroed its own buffers — and plans the same plan.
func TestSSABEReusesPhase2Storage(t *testing.T) {
	runtime.GC()                                     // no unit parked by another test is left to be picked
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing reclaims the parked units between the calls
	job, err := jobs.ByName("mean")
	if err != nil {
		t.Fatal(err)
	}
	pilot := pilotData(10_000, 5)
	cfg := Config{Reducer: job.Reducer, Key: "mean", Sigma: 0.05, Seed: 3, Parallelism: 2}
	want, err := SSABE(pilot, 1_000_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := SSABE(pilot, 1_000_000, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("on parked storage the plan is %+v, on fresh storage %+v", got, want)
	}
	const budget = 1_500_000
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= budget {
		t.Fatalf("an SSABE on parked storage allocated %d B, want < %d", alloc, budget)
	}
	t.Logf("an SSABE on parked storage allocated %d B", alloc)
}

// TestConcurrentPlanAllReusesNoUnit: PlanAll calls running at once, over
// different pilots and seeds, each take their own parked units — a unit
// two replicates grew into at once would mix their resamples — so each
// plans exactly what it plans alone. One query's statistics are counted
// over the pilot's distinct values, so its units carry count vectors.
func TestConcurrentPlanAllReusesNoUnit(t *testing.T) {
	gaussian := pilotData(10_000, 5)
	zipf, err := workload.NumericSpec{Dist: workload.Zipf, N: 6_000, Seed: 9}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	query := func(seed uint64, names ...string) []Config {
		cfgs := make([]Config, len(names))
		for i, name := range names {
			job, err := jobs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = Config{Reducer: job.Reducer, Key: name, Sigma: 0.05, Seed: seed, Parallelism: 2}
		}
		return cfgs
	}
	calls := []struct {
		pilot []float64
		cfgs  []Config
	}{
		{gaussian, query(3, "mean")},
		{zipf, query(8, "mean", "p50")},
	}
	want := make([]string, len(calls))
	for i, c := range calls {
		plans, err := PlanAll(c.pilot, 1_000_000, c.cfgs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%+v", plans)
	}
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		got := make([]string, len(calls))
		errs := make([]error, len(calls))
		for i, c := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plans, err := PlanAll(c.pilot, 1_000_000, c.cfgs)
				got[i], errs[i] = fmt.Sprintf("%+v", plans), err
			}()
		}
		wg.Wait()
		for i := range calls {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != want[i] {
				t.Fatalf("round %d, call %d: planned beside another call %s, alone %s", round, i, got[i], want[i])
			}
		}
	}
}
