package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/simcost"
	"repro/internal/stats"
)

// groupedEnv writes key\tvalue records with known per-key means.
func groupedEnv(t testing.TB, keys, n int, seed uint64) (*Env, map[string]float64) {
	t.Helper()
	env, err := NewEnv(EnvConfig{BlockSize: 1 << 14, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e99))
	sums := map[string]float64{}
	counts := map[string]int{}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("g%02d", rng.IntN(keys))
		base := float64(10 * (1 + int([]byte(k)[2]-'0') + 10*int([]byte(k)[1]-'0')))
		v := base + rng.NormFloat64()*3
		fmt.Fprintf(&sb, "%s\t%012.6f\n", k, v)
		sums[k] += v
		counts[k]++
	}
	truth := map[string]float64{}
	for k, s := range sums {
		truth[k] = s / float64(counts[k])
	}
	if err := env.FS.WriteFile("/kv", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	return env, truth
}

func TestRunGroupedMeanPerKey(t *testing.T) {
	env, truth := groupedEnv(t, 8, 120_000, 3)
	rep, err := RunGrouped(env, jobs.Mean(), TabRoute(), "/kv", Options{Sigma: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != len(truth) {
		t.Fatalf("got %d groups, want %d", len(rep.Groups), len(truth))
	}
	if !rep.Converged {
		t.Fatalf("grouped run did not converge: %+v", rep)
	}
	for k, want := range truth {
		got, ok := rep.Groups[k]
		if !ok {
			t.Fatalf("missing group %s", k)
		}
		if rel := math.Abs(got.Estimate-want) / want; rel > 0.15 {
			t.Fatalf("group %s: estimate %v vs truth %v (rel %v)", k, got.Estimate, want, rel)
		}
		if got.CV > 0.05 {
			t.Fatalf("group %s cv = %v > σ", k, got.CV)
		}
		if got.SampleSize < 8 {
			t.Fatalf("group %s sample %d too small", k, got.SampleSize)
		}
	}
	// Still a sampling win: far fewer records consumed than exist.
	if rep.SampleSize > 120_000/2 {
		t.Fatalf("grouped run consumed %d records", rep.SampleSize)
	}
	if got := rep.SortedGroupKeys(); len(got) != len(truth) || got[0] > got[len(got)-1] {
		t.Fatalf("sorted keys wrong: %v", got)
	}
}

// TestRunGroupedHonoursDisableDeltaMaintenance: a grouped run with
// DisableDeltaMaintenance grows every group through the naive
// recompute-everything resampler, which writes each group's resamples
// back every round, so it is charged otherwise than the same run with
// delta maintenance — and still answers for every group.
func TestRunGroupedHonoursDisableDeltaMaintenance(t *testing.T) {
	charged := func(disable bool) simcost.Snapshot {
		env, truth := groupedEnv(t, 4, 60_000, 5)
		rep, err := RunGrouped(env, jobs.Mean(), TabRoute(), "/kv", Options{Sigma: 0.005, Seed: 6, DisableDeltaMaintenance: disable})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Groups) != len(truth) {
			t.Fatalf("DisableDeltaMaintenance=%v: %d groups, want %d", disable, len(rep.Groups), len(truth))
		}
		return env.Metrics.Snapshot()
	}
	delta, naive := charged(false), charged(true)
	if naive == delta {
		t.Fatalf("the naive grouped run was charged exactly what the delta-maintained one was: %+v", naive)
	}
	if naive.BytesWritten <= delta.BytesWritten {
		t.Fatalf("naive grouped run wrote %d bytes, the delta-maintained one %d: the resamples were not rewritten", naive.BytesWritten, delta.BytesWritten)
	}
}

func TestRunGroupedValidation(t *testing.T) {
	env, _ := groupedEnv(t, 2, 100, 5)
	if _, err := RunGrouped(nil, jobs.Mean(), TabRoute(), "/kv", Options{}); err == nil {
		t.Fatal("nil env should error")
	}
	if _, err := RunGrouped(env, jobs.Numeric{}, TabRoute(), "/kv", Options{}); err == nil {
		t.Fatal("empty job should error")
	}
	// Route is a sum: neither field set and both set are rejected alike.
	_, neither := RunGrouped(env, jobs.Mean(), Route{}, "/kv", Options{})
	_, both := RunGrouped(env, jobs.Mean(), Route{Parse: TabKV, Format: colscan.FormatKV}, "/kv", Options{})
	if neither == nil || both == nil || neither.Error() != both.Error() {
		t.Fatalf("Route with neither field (%v) and with both (%v) should fail with one message", neither, both)
	}
	if _, err := RunGrouped(env, jobs.Mean(), TabRoute(), "/missing", Options{}); err == nil {
		t.Fatal("missing path should error")
	}
}

func TestTabKV(t *testing.T) {
	k, v, err := TabKV("host-1\t3.5")
	if err != nil || k != "host-1" || v != 3.5 {
		t.Fatalf("TabKV = %q %v %v", k, v, err)
	}
	if _, _, err := TabKV("no-tab-here"); err == nil {
		t.Fatal("missing tab should error")
	}
	if _, _, err := TabKV("k\tnot-a-number"); err == nil {
		t.Fatal("bad value should error")
	}
}

func TestRunGroupedSkewedKeys(t *testing.T) {
	// Zipf-ish key skew: the dominant key converges immediately while
	// rare keys force expansion; the run must still terminate with every
	// key estimated.
	env, err := NewEnv(EnvConfig{BlockSize: 1 << 14, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 8))
	var sb strings.Builder
	var sums [3]float64
	var counts [3]int
	for i := 0; i < 60_000; i++ {
		k := 0
		switch {
		case rng.Float64() < 0.90:
			k = 0
		case rng.Float64() < 0.8:
			k = 1
		default:
			k = 2
		}
		v := float64(100*(k+1)) + rng.NormFloat64()*5
		fmt.Fprintf(&sb, "key%d\t%012.6f\n", k, v)
		sums[k] += v
		counts[k]++
	}
	if err := env.FS.WriteFile("/skew", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	rep, err := RunGrouped(env, jobs.Mean(), TabRoute(), "/skew", Options{Sigma: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 3 {
		t.Fatalf("groups = %v", rep.SortedGroupKeys())
	}
	for k := 0; k < 3; k++ {
		name := fmt.Sprintf("key%d", k)
		want := sums[k] / float64(counts[k])
		got := rep.Groups[name]
		if rel := math.Abs(got.Estimate-want) / want; rel > 0.15 {
			t.Fatalf("%s: %v vs %v", name, got.Estimate, want)
		}
	}
	_ = stats.Sum([]float64{0}) // reference keeps the import local to this test
}
