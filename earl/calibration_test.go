package earl_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/earl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// calibrationJob describes one statistic under calibration: how to run
// it and what the true value of a dataset is.
type calibrationJob struct {
	name  string
	dist  workload.Dist
	job   func() (earl.Job, error)
	truth func(xs []float64) float64
}

// TestConfidenceIntervalCalibration is an end-to-end statistical check:
// across ≥200 independent seeded runs, the reported 95% confidence
// interval must cover the true value in at least 90% of runs, per
// statistic. A silently miscalibrated error estimate — an uncorrected
// interval around a corrected SUM, a resampling bug that shrinks the
// bootstrap distribution — fails this test while every point-estimate
// tolerance test keeps passing.
func TestConfidenceIntervalCalibration(t *testing.T) {
	const (
		seedsPerJob = 70 // 3 jobs × 70 = 210 end-to-end runs
		records     = 20_000
		minCoverage = 0.90
	)
	jobs := []calibrationJob{
		{
			name: "mean", dist: workload.Uniform,
			job:   func() (earl.Job, error) { return earl.Mean(), nil },
			truth: func(xs []float64) float64 { m, _ := stats.Mean(xs); return m },
		},
		{
			name: "sum", dist: workload.Uniform,
			job:   func() (earl.Job, error) { return earl.Sum(), nil },
			truth: stats.Sum,
		},
		{
			name: "quantile-0.5", dist: workload.Gaussian,
			job:   func() (earl.Job, error) { return earl.Quantile(0.5) },
			truth: func(xs []float64) float64 { q, _ := stats.Quantile(xs, 0.5); return q },
		},
	}

	for _, cj := range jobs {
		cj := cj
		t.Run(cj.name, func(t *testing.T) {
			t.Parallel()
			var covered, sampledRuns atomic.Int64
			var mu sync.Mutex
			var firstErr error
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			var wg sync.WaitGroup
			sem := make(chan struct{}, 8)
			for seed := 0; seed < seedsPerJob; seed++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(seed uint64) {
					defer wg.Done()
					defer func() { <-sem }()
					job, err := cj.job()
					if err != nil {
						fail(err)
						return
					}
					cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 13, Seed: seed})
					if err != nil {
						fail(err)
						return
					}
					xs, err := workload.NumericSpec{Dist: cj.dist, N: records, Seed: 1000 + seed}.Generate()
					if err != nil {
						fail(err)
						return
					}
					if err := cluster.WriteValues("/data", xs); err != nil {
						fail(err)
						return
					}
					rep, err := cluster.Run(job, "/data", earl.Options{
						Sigma:  0.05,
						Seed:   2000 + seed,
						ForceB: 150, // fixed plan: every run exercises the sampled path
						ForceN: 800, // (B this large keeps the percentile tails stable)
					})
					if err != nil {
						fail(err)
						return
					}
					if rep.UsedFull {
						return // no interval to calibrate
					}
					sampledRuns.Add(1)
					truth := cj.truth(xs)
					if rep.CILo <= truth && truth <= rep.CIHi {
						covered.Add(1)
					}
				}(uint64(seed))
			}
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			runs := sampledRuns.Load()
			if runs < seedsPerJob*9/10 {
				t.Fatalf("only %d of %d runs took the sampled path", runs, seedsPerJob)
			}
			coverage := float64(covered.Load()) / float64(runs)
			t.Logf("%s: 95%% CI covered truth in %d/%d runs (%.1f%%)", cj.name, covered.Load(), runs, 100*coverage)
			if coverage < minCoverage {
				t.Fatalf("%s: coverage %.1f%% < %.0f%% — the reported confidence interval is miscalibrated",
					cj.name, 100*coverage, 100*minCoverage)
			}
		})
	}
}
