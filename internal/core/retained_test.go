package core

import (
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
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
	sink, ok := ret.sink.(*groupSink)
	if !ok {
		t.Fatalf("retained sink is a %T", ret.sink)
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
