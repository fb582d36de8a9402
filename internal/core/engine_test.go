package core

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// meanSpec is a scalar mean over /data on a fixed plan: B 30, rounds
// from n 400 up to 50 000.
func meanSpec(t *testing.T, env *Env, opts Options) (engineSpec, *statSink) {
	t.Helper()
	job := jobs.Mean()
	sink, err := newStatSink(env, []jobs.Numeric{job}, []aes.Plan{{B: 30, N: 400}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return engineSpec{
		Name: "earl-test", Sinks: []Sink{sink},
		InitialN: 400, MaxN: 50_000,
		Decode: ScalarDecode(job, nil), Key: job.Name,
	}, sink
}

// TestRunWithAllNodesDead: a run on a cluster with no live compute node
// fails to place its job.
func TestRunWithAllNodesDead(t *testing.T) {
	env, _ := testEnv(t, 20_000, workload.Uniform, 81)
	for id := range 5 {
		if err := env.Cluster.KillNode(id); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Seed: 82}.withDefaults()
	spec, _ := meanSpec(t, env, opts)
	if _, err := runEngine(env, "/data", opts, spec); err == nil || !strings.Contains(err.Error(), "placing reduce[0]") {
		t.Fatalf("err = %v, want the placement error", err)
	}
}

// failSink fails every fold.
type failSink struct {
	Sink
	err error
}

func (f failSink) Fold(*colscan.Cols) error { return f.err }

// TestReducerErrorPropagates: a sink that fails to fold fails the run,
// with its cause under errors.Is — the reducers hold the states.
func TestReducerErrorPropagates(t *testing.T) {
	env, _ := testEnv(t, 20_000, workload.Uniform, 83)
	opts := Options{Seed: 84}.withDefaults()
	spec, sink := meanSpec(t, env, opts)
	cause := errors.New("statistic failed")
	spec.Sinks = []Sink{failSink{Sink: sink, err: cause}}
	if _, err := runEngine(env, "/data", opts, spec); !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the sink's cause", err)
	}
}

// TestMapperErrorPropagates: a mapper whose stream fails with anything
// but a bad record is a lost mapper — counted, and the run answers on
// the others (§3.4).
func TestMapperErrorPropagates(t *testing.T) {
	env, _ := testEnv(t, 20_000, workload.Uniform, 85)
	opts := Options{Seed: 86}.withDefaults()
	spec, sink := meanSpec(t, env, opts)
	splits, err := env.View().Splits("/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	sources, err := NewRecordSources(env, "/data", DealSplits(splits), opts, 0, spec.Decode, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseSources(sources)
	sources[1].Release()
	sources[1] = errSource{err: errors.New("no live replica")}
	res, err := runRounds(env, opts, &spec, sources)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedMaps != 1 {
		t.Fatalf("%d failed mappers, want 1", res.FailedMaps)
	}
	if n := sink.Size(); n < 400*3/4 {
		t.Fatalf("sample of %d: the other mappers' shares are missing", n)
	}
}

// TestConcurrentRunsOutnumberNodes: a task is placed, never queued for
// capacity, so concurrent runs with more tasks than the cluster has
// nodes all finish — three runs of four mappers and a reducer each on
// one node — and each answers what it answers alone.
func TestConcurrentRunsOutnumberNodes(t *testing.T) {
	const runs = 3
	env, err := NewEnv(EnvConfig{DataNodes: 1, BlockSize: 1 << 14, Replication: 1, Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 100_000, Seed: 87}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	run := func(i int) (Report, error) {
		return Run(env, jobs.Mean(), "/data", Options{Sigma: 0.01, Seed: uint64(88 + i)})
	}
	alone := make([]Report, runs)
	for i := range alone {
		if alone[i], err = run(i); err != nil {
			t.Fatal(err)
		}
		if alone[i].UsedFull {
			t.Fatalf("run %d fell back to the exact job", i)
		}
	}
	got, errs := make([]Report, runs), make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(i)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], alone[i]) {
			t.Fatalf("run %d beside the others %+v, alone %+v", i, got[i], alone[i])
		}
	}
}
