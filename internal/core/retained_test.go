package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/workload"
)

// TestRetainedGroupedSinkHoldsEveryKeyOnce: a grouped run folds into one
// sink per reduce partition; what it retains is ONE sink holding every
// key of both partitions exactly once, the same resample sets the report
// was rendered from.
func TestRetainedGroupedSinkHoldsEveryKeyOnce(t *testing.T) {
	env, truth := groupedEnv(t, 8, 120_000, 3)
	res, ret, err := Execute(env, KeyedJobQuery(jobs.Mean(), TabRoute(), "/kv", Options{Sigma: 0.05, Seed: 4}), true)
	if err != nil {
		t.Fatal(err)
	}
	sink, ok := ret.Sink.(*groupSink)
	if !ok {
		t.Fatalf("retained sink is a %T", ret.Sink)
	}
	if len(sink.maints) != len(truth) {
		t.Fatalf("retained sink holds %d keys, the data has %d", len(sink.maints), len(truth))
	}
	parts := map[int]int{}
	var held int
	for key := range truth {
		mt, ok := sink.maints[key]
		if !ok {
			t.Fatalf("key %s is not in the retained sink", key)
		}
		if got := res.Groups.Groups[key].SampleSize; mt.N() != got {
			t.Fatalf("key %s: retained sample %d, reported %d", key, mt.N(), got)
		}
		held += mt.N()
		parts[mr.HashPartition(key, 2)]++
	}
	if parts[0] == 0 || parts[1] == 0 {
		t.Fatalf("keys per partition %v: the run never exercised the merge", parts)
	}
	if held != res.Groups.SampleSize || sink.Size() != int64(held) {
		t.Fatalf("retained %d records (Size %d), reported %d", held, sink.Size(), res.Groups.SampleSize)
	}
}

// TestRetainedStateDoesNotReachTheBarrier: a watch holds a run's
// Retained for as long as it lives, so nothing of the engine may hang
// off it. The run's barrier is the probe: with Execute returned and only
// the retained state held, a collection must free it — scalar and
// grouped, both samplers.
func TestRetainedStateDoesNotReachTheBarrier(t *testing.T) {
	defer func(orig func(mr.Feedback) *mr.Controller) { newController = orig }(newController)
	freed := make(chan struct{}, 1)
	newController = func(f mr.Feedback) *mr.Controller {
		c := mr.NewController(f)
		runtime.SetFinalizer(c, func(*mr.Controller) { freed <- struct{}{} })
		return c
	}
	scalarEnv, _ := testEnv(t, 60_000, workload.Gaussian, 5)
	keyedEnv, _ := groupedEnv(t, 6, 60_000, 6)
	for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
		opts := Options{Sigma: 0.05, Seed: 7, Sampler: sampler}
		for name, run := range map[string]func() (*Retained, error){
			"scalar": func() (*Retained, error) {
				_, ret, err := Execute(scalarEnv, JobQuery([]jobs.Numeric{jobs.Mean(), jobs.Median()}, "/data", opts), true)
				return ret, err
			},
			"grouped": func() (*Retained, error) {
				_, ret, err := Execute(keyedEnv, KeyedJobQuery(jobs.Mean(), TabRoute(), "/kv", opts), true)
				return ret, err
			},
		} {
			ret, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if ret.Sink == nil {
				t.Fatalf("%s/%s: want a sampled run", sampler, name)
			}
			deadline := time.After(10 * time.Second)
			for collected := false; !collected; {
				runtime.GC()
				select {
				case <-freed:
					collected = true
				case <-deadline:
					t.Fatalf("%s/%s: the run's mr.Controller is still reachable after Execute returned", sampler, name)
				case <-time.After(5 * time.Millisecond):
				}
			}
			runtime.KeepAlive(ret)
		}
	}
}
