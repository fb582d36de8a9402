package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// These tests pin what the round loop guarantees and the §3.3
// error-file mailbox it replaced could not: a stop decision that cannot
// race, a modelled cost that repeats, node loss that repeats, and
// liveness without a polling watchdog.

// TestGroupedPlanStopDecisionRepeats repeats one fixed-seed grouped plan
// of the shape that exposed the mailbox's races — two reduce partitions,
// 16 keys of which one is filtered out, a derived value, post-map
// sampling — and requires every report to be bit-identical. At the
// default σ the first round sits on the stop boundary (the mailbox mixed
// rounds across partitions there, about once in 150 runs); at σ = 0.01
// the run reaches the expansion cap (where a mapper that met its share
// early could end the run before its peers delivered theirs).
func TestGroupedPlanStopDecisionRepeats(t *testing.T) {
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 30_000, Seed: 12}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var kv strings.Builder
	for i, v := range xs {
		fmt.Fprintf(&kv, "g%d\t%012.6f\n", i%16, v)
	}
	env, err := NewEnv(EnvConfig{BlockSize: 256 << 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/kv", []byte(kv.String())); err != nil {
		t.Fatal(err)
	}
	spec := plan.Spec{Path: "/kv", Stats: []string{"mean"}, Filter: `v > 20 && key != "g7"`,
		Derive: "v * 2 + 1", GroupBy: "key", Sampler: "post-map"}
	for _, sigma := range []float64{0.05, 0.01} {
		var golden *PlanResult
		for _, par := range []int{1, 4} {
			for i := 0; i < 150; i++ {
				got, err := RunPlan(env, spec, Options{Sigma: sigma, Seed: 12, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if golden == nil {
					golden = got
				} else if !reflect.DeepEqual(golden, got) {
					t.Fatalf("σ=%g Parallelism=%d repeat %d differs:\n first: %+v\n   got: %+v",
						sigma, par, i, *golden.Groups, *got.Groups)
				}
			}
		}
	}
}

// TestModelledCostRepeats: with the feedback exchange charged once per
// round instead of once per poll, a fixed-seed run's modelled cost is a
// function of the run, not of how often its mappers happened to wake.
// The plan is forced small, so the run takes several rounds: the mean's
// plug-in plan would converge in its first.
func TestModelledCostRepeats(t *testing.T) {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 400_000, Seed: 61}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	data := workload.EncodeLinesFixed(xs)
	for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
		var golden simcost.Snapshot
		for i := 0; i < 20; i++ {
			env, err := NewEnv(EnvConfig{BlockSize: 256 << 10, Seed: 62})
			if err != nil {
				t.Fatal(err)
			}
			if err := env.FS.WriteFile("/data", data); err != nil {
				t.Fatal(err)
			}
			env.Metrics.Reset()
			rep, err := Run(env, jobs.Mean(), "/data", Options{Sigma: 0.004, Seed: 63, Sampler: sampler, ForceB: 20, ForceN: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if rep.UsedFull || rep.Iterations < 2 {
				t.Fatalf("%s: want a multi-round sampled run, got %+v", sampler, rep)
			}
			got := env.Metrics.Snapshot()
			if i == 0 {
				golden = got
			} else if got != golden {
				t.Fatalf("%s: repeat %d modelled cost differs:\n first: %v\n   got: %v", sampler, i, golden, got)
			}
		}
	}
}

// gateSink holds its partition's first fold open until released, so a
// test can act after round 1's draws and before its ruling.
type gateSink struct {
	sink
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gateSink) Fold(cols *colscan.Cols) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.sink.Fold(cols)
}

// killedRun is what one run that lost machines reports.
type killedRun struct {
	res     engineResult
	n       int
	results []float64
}

// killBetweenRounds runs a scalar mean on a fresh testEnv and kills
// nodes 1 and 2 while round 1 folds. Placement is round-robin from
// node 0: the one reducer there, mappers 0–3 on nodes 1–4.
func killBetweenRounds(t *testing.T, sigma float64) killedRun {
	t.Helper()
	env, _ := testEnv(t, 200_000, workload.Uniform, 71)
	opts := Options{Sigma: sigma, Seed: 72}.withDefaults()
	spec, ss := meanSpec(t, env, opts)
	gate := &gateSink{sink: ss, entered: make(chan struct{}), release: make(chan struct{})}
	spec.Sinks = []sink{gate}
	done := make(chan struct{})
	go func() {
		select {
		case <-gate.entered:
		case <-done:
			return
		}
		for _, id := range []int{1, 2} {
			if err := env.KillNode(id); err != nil {
				t.Error(err)
			}
		}
		close(gate.release)
	}()
	res, err := runEngine(env, "/data", opts, spec)
	close(done)
	if err != nil {
		t.Fatalf("run with node loss should still answer: %v", err)
	}
	releaseSources(res.Sources)
	res.Sources = nil
	results, err := ss.stats[0].maint.Results()
	if err != nil {
		t.Fatalf("no result distribution after node loss: %v", err)
	}
	return killedRun{res: res, n: ss.stats[0].maint.N(), results: results}
}

// TestKillNodeWhileMappersParked: machines lost between rounds fail the
// mappers that ran there, and only those; the run finishes on the
// survivors with the accuracy it achieved (§3.4).
func TestKillNodeWhileMappersParked(t *testing.T) {
	got := killBetweenRounds(t, 0.05)
	if got.res.FailedMaps != 2 {
		t.Fatalf("%d failed mappers, want the 2 that ran on the killed nodes", got.res.FailedMaps)
	}
	if got.n < 400 || got.n >= 50_000 {
		t.Fatalf("sample size %d: want the survivors' achieved sample (≥ round 1, below the cap)", got.n)
	}
	if len(got.results) != 30 {
		t.Fatalf("%d resample results, want 30", len(got.results))
	}
}

// TestKillNodeBetweenRoundsRepeats: a run that loses machines is as
// deterministic as one that does not. At σ 0.002 the run goes on past
// the kill, and each of ten repeats must report the same.
func TestKillNodeBetweenRoundsRepeats(t *testing.T) {
	golden := killBetweenRounds(t, 0.002)
	t.Logf("%d rounds, %d failed mappers, n %d", golden.res.Generations, golden.res.FailedMaps, golden.n)
	if golden.res.Generations < 2 {
		t.Fatalf("%d rounds: the run must go on after the kill", golden.res.Generations)
	}
	for i := 1; i < 10; i++ {
		if got := killBetweenRounds(t, 0.002); !reflect.DeepEqual(got, golden) {
			t.Fatalf("repeat %d: %d rounds, %d failed mappers, n %d; first run %d, %d, n %d", i,
				got.res.Generations, got.res.FailedMaps, got.n, golden.res.Generations, golden.res.FailedMaps, golden.n)
		}
	}
}

// TestDrySourcesBelowTargetTerminate: when every source runs out below
// the target the round can never complete; the run ends on what arrived
// instead of waiting for the missing share.
func TestDrySourcesBelowTargetTerminate(t *testing.T) {
	env, xs := testEnv(t, 3_000, workload.Uniform, 73)
	done := make(chan struct{})
	var rep Report
	var err error
	go func() {
		defer close(done)
		rep, err = Run(env, jobs.Mean(), "/data", Options{Seed: 74, ForceB: 20, ForceN: 10_000})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung with all sources dry below the target")
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampleSize == 0 || rep.SampleSize > len(xs) {
		t.Fatalf("sample size %d of %d records", rep.SampleSize, len(xs))
	}
}

// TestRunsLeaveNoGoroutines: a run owns no background goroutine (there
// is no watchdog and no timer), so the count returns to its baseline
// after the 200th run. A task goroutine may still be exiting as Run
// returns — past its deferred Done, not yet gone — so the count is
// polled for up to 2 s; a leaked goroutine parks forever and still fails.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	env, _ := testEnv(t, 50_000, workload.Gaussian, 75)
	opts := Options{Sigma: 0.02, Seed: 76}
	if _, err := Run(env, jobs.Mean(), "/data", opts); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		if _, err := Run(env, jobs.Mean(), "/data", opts); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for after := runtime.NumGoroutine(); after > before; after = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d 2 s after 200 runs", before, after)
		}
		time.Sleep(time.Millisecond)
	}
}
