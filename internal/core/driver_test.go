package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// testEnv builds a small simulated cluster with a numeric dataset at
// /data and returns the env plus the true values.
func testEnv(t testing.TB, n int, dist workload.Dist, seed uint64) (*Env, []float64) {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		DataNodes:   5,
		BlockSize:   1 << 14,
		Replication: 2,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: dist, N: n, Seed: seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	return env, xs
}

func TestRunMeanConverges(t *testing.T) {
	env, xs := testEnv(t, 200_000, workload.Uniform, 5)
	truth, _ := stats.Mean(xs)
	rep, err := Run(env, jobs.Mean(), "/data", Options{Sigma: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull {
		t.Fatalf("expected sampling path, got full run: %+v", rep)
	}
	if !rep.Converged {
		t.Fatalf("did not converge: %+v", rep)
	}
	if rep.CV > 0.05 {
		t.Fatalf("cv = %v > σ", rep.CV)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.1 {
		t.Fatalf("estimate %v vs truth %v (rel %v)", rep.Estimate, truth, rel)
	}
	// §6.1/6.4: the whole point — the sample is a small fraction of N.
	if float64(rep.SampleSize) > 0.2*float64(len(xs)) {
		t.Fatalf("sample %d is not small vs N=%d", rep.SampleSize, len(xs))
	}
	if rep.B < 2 {
		t.Fatalf("B = %d", rep.B)
	}
	if rep.Iterations < 1 {
		t.Fatalf("iterations = %d", rep.Iterations)
	}
	if !(rep.CILo <= rep.Uncorrected && rep.Uncorrected <= rep.CIHi) {
		t.Fatalf("CI [%v,%v] does not bracket %v", rep.CILo, rep.CIHi, rep.Uncorrected)
	}
}

func TestRunReadsFarLessThanStock(t *testing.T) {
	env, _ := testEnv(t, 300_000, workload.Uniform, 6)
	size, _ := env.FS.Stat("/data")
	rep, err := Run(env, jobs.Mean(), "/data", Options{Sigma: 0.05, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull {
		t.Fatalf("unexpected full run")
	}
	read := env.Metrics.BytesRead.Load()
	if read > size/2 {
		t.Fatalf("EARL read %d of %d bytes — no sampling advantage", read, size)
	}
}

func TestRunMedianConverges(t *testing.T) {
	env, xs := testEnv(t, 100_000, workload.Gaussian, 7)
	truth, _ := stats.Median(xs)
	rep, err := Run(env, jobs.Median(), "/data", Options{Sigma: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull || !rep.Converged {
		t.Fatalf("median run: %+v", rep)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.1 {
		t.Fatalf("median %v vs truth %v", rep.Estimate, truth)
	}
}

func TestRunSumCorrection(t *testing.T) {
	env, xs := testEnv(t, 150_000, workload.Uniform, 8)
	truth := stats.Sum(xs)
	rep, err := Run(env, jobs.Sum(), "/data", Options{Sigma: 0.05, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull {
		t.Fatalf("unexpected full run: %+v", rep)
	}
	if rep.FractionP <= 0 || rep.FractionP > 1 {
		t.Fatalf("fraction p = %v", rep.FractionP)
	}
	// The uncorrected sum is the sample sum — way below truth; the
	// corrected one must land near the real total.
	if rep.Uncorrected > truth/2 {
		t.Fatalf("uncorrected %v suspiciously close to truth %v", rep.Uncorrected, truth)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.15 {
		t.Fatalf("corrected sum %v vs truth %v (rel %v)", rep.Estimate, truth, rel)
	}
}

func TestRunFallsBackToExactOnTinyData(t *testing.T) {
	env, xs := testEnv(t, 300, workload.Uniform, 9)
	truth, _ := stats.Mean(xs)
	rep, err := Run(env, jobs.Mean(), "/data", Options{Sigma: 0.05, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedFull {
		t.Fatalf("tiny data should use the exact path: %+v", rep)
	}
	if math.Abs(rep.Estimate-truth) > 1e-9 {
		t.Fatalf("exact result %v != %v", rep.Estimate, truth)
	}
	if rep.CV != 0 || !rep.Converged {
		t.Fatalf("exact report: %+v", rep)
	}
}

func TestRunPostMapSampler(t *testing.T) {
	env, xs := testEnv(t, 60_000, workload.Uniform, 14)
	truth, _ := stats.Mean(xs)
	rep, err := Run(env, jobs.Mean(), "/data", Options{
		Sigma: 0.05, Seed: 15, Sampler: PostMapSampling,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull {
		t.Fatalf("unexpected full run: %+v", rep)
	}
	if !rep.Converged {
		t.Fatalf("post-map run did not converge: %+v", rep)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.1 {
		t.Fatalf("estimate %v vs truth %v", rep.Estimate, truth)
	}
	// Post-map pays the full load: every record is ingested into the
	// pool. The bytes behind that scan come from the compact columnar
	// sidecar (~12 bytes/record vs 19 of text), so assert full
	// ingestion by record count with a byte floor rather than
	// bytes ≥ file size.
	size, _ := env.FS.Stat("/data")
	if env.Metrics.RecordsRead.Load() < 60_000 {
		t.Fatalf("post-map should pool every record: read %d of 60000", env.Metrics.RecordsRead.Load())
	}
	if env.Metrics.BytesRead.Load() < size/2 {
		t.Fatalf("post-map should scan the input: read %d of %d", env.Metrics.BytesRead.Load(), size)
	}
}

func TestRunForcedPlan(t *testing.T) {
	env, _ := testEnv(t, 100_000, workload.Uniform, 16)
	rep, err := Run(env, jobs.Mean(), "/data", Options{
		Sigma: 0.05, Seed: 17, ForceB: 25, ForceN: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.B != 25 {
		t.Fatalf("B = %d, want forced 25", rep.B)
	}
	if rep.PlannedN != 2000 {
		t.Fatalf("PlannedN = %d, want 2000", rep.PlannedN)
	}
	if rep.SampleSize < 2000 {
		t.Fatalf("sample %d below forced initial", rep.SampleSize)
	}
}

func TestRunExpandsWhenInitialSampleTooSmall(t *testing.T) {
	// Force a tiny initial sample so the first cv misses σ and the
	// mapper-side expansion loop must kick in (≥2 iterations).
	env, _ := testEnv(t, 120_000, workload.Gaussian, 18)
	rep, err := Run(env, jobs.Mean(), "/data", Options{
		Sigma: 0.02, Seed: 19, ForceB: 30, ForceN: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations < 2 {
		t.Fatalf("expected sample expansion, iterations = %d (%+v)", rep.Iterations, rep)
	}
	if !rep.Converged {
		t.Fatalf("should converge after expansion: %+v", rep)
	}
	if rep.SampleSize <= 40 {
		t.Fatalf("sample did not grow: %d", rep.SampleSize)
	}
}

func TestRunNonConvergenceAtCap(t *testing.T) {
	// An unreachable σ: the job must expand to the cap and finish there
	// (with Converged=false) rather than hang — the "finish with achieved
	// accuracy" behaviour.
	env, _ := testEnv(t, 50_000, workload.Pareto, 20)
	rep, err := Run(env, jobs.Mean(), "/data", Options{
		Sigma: 1e-9, Seed: 21, ForceB: 20, ForceN: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged {
		t.Fatalf("cannot have converged to σ=1e-9: %+v", rep)
	}
	if rep.CV <= 1e-9 {
		t.Fatalf("cv = %v", rep.CV)
	}
	limit := int(MaxSampleShare * float64(rep.EstTotalN))
	if rep.SampleSize > limit {
		t.Fatalf("expansion ignored the cap: %d > %d", rep.SampleSize, limit)
	}
	if rep.SampleSize <= limit/2 {
		t.Fatalf("expansion stopped at %d, short of the cap %d", rep.SampleSize, limit)
	}
}

func TestRunFaultToleranceNodeLoss(t *testing.T) {
	// Kill two of five machines mid-job; EARL must still deliver a
	// result with an error estimate (§3.4), not fail.
	env, xs := testEnv(t, 200_000, workload.Uniform, 22)
	truth, _ := stats.Mean(xs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Kill nodes as soon as the job is plausibly running.
		for env.Metrics.RecordsMapped.Load() < 100 {
		}
		env.KillNode(3)
		env.KillNode(4)
	}()
	rep, err := Run(env, jobs.Mean(), "/data", Options{Sigma: 0.05, Seed: 23})
	<-done
	if err != nil {
		t.Fatalf("run with node loss should still answer: %v", err)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.15 {
		t.Fatalf("estimate after failures %v vs truth %v", rep.Estimate, truth)
	}
	if rep.CV <= 0 {
		t.Fatalf("no error estimate delivered: %+v", rep)
	}
}

func TestRunValidation(t *testing.T) {
	env, _ := testEnv(t, 100, workload.Uniform, 24)
	if _, err := Run(nil, jobs.Mean(), "/data", Options{}); err == nil {
		t.Fatal("nil env should error")
	}
	if _, err := Run(env, jobs.Numeric{}, "/data", Options{}); err == nil {
		t.Fatal("empty job should error")
	}
	if _, err := Run(env, jobs.Mean(), "/missing", Options{}); err == nil {
		t.Fatal("missing path should error")
	}
}

func TestRunExactJobDirect(t *testing.T) {
	env, xs := testEnv(t, 5_000, workload.Uniform, 25)
	truth, _ := stats.Median(xs)
	got, n, err := RunExactJob(env, jobs.Median(), "/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(xs) {
		t.Fatalf("processed %d records, want %d", n, len(xs))
	}
	// The fixed-width file encoding rounds to 9 mantissa digits, so the
	// on-disk median differs from the in-memory one in the 1e-9 tail.
	if math.Abs(got-truth) > 1e-6*math.Abs(truth) {
		t.Fatalf("exact median %v != %v", got, truth)
	}
}

func TestEnvKillRevive(t *testing.T) {
	env, _ := testEnv(t, 100, workload.Uniform, 26)
	if err := env.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := env.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	if err := env.KillNode(99); err == nil {
		t.Fatal("bad node id should error")
	}
}

func TestRunVarianceJob(t *testing.T) {
	env, xs := testEnv(t, 120_000, workload.Gaussian, 27)
	truth, _ := stats.Variance(xs)
	rep, err := Run(env, jobs.Variance(), "/data", Options{Sigma: 0.08, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull {
		t.Fatalf("unexpected full run: %+v", rep)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.25 {
		t.Fatalf("variance %v vs truth %v", rep.Estimate, truth)
	}
}

func TestRunQuantileJob(t *testing.T) {
	env, xs := testEnv(t, 120_000, workload.Gaussian, 29)
	q90, err := jobs.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := stats.Quantile(xs, 0.9)
	rep, err := Run(env, q90, "/data", Options{Sigma: 0.05, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.1 {
		t.Fatalf("p90 %v vs truth %v", rep.Estimate, truth)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	// Same seed + same data ⇒ the same report, bit for bit, over repeats
	// and whether the mappers draw one at a time or side by side: all
	// randomness is seeded, and each resample's fold is its own.
	var want string
	for i, par := range []int{1, 1, 1, 3} {
		env, _ := testEnv(t, 80_000, workload.Uniform, 31)
		rep, err := Run(env, jobs.Mean(), "/data", Options{Sigma: 0.05, Seed: 32, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", rep)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d (Parallelism %d) reports\n%s\nrun 0 (Parallelism 1)\n%s", i, par, got, want)
		}
	}
}
