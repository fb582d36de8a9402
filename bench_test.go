// Package repro_test holds the benchmark harness: one testing.B
// benchmark per figure of the paper's evaluation (each regenerates the
// figure's table end to end on the simulated cluster — run with
// `go test -bench=. -benchmem`), plus micro-benchmarks for the hot
// substrates (bootstrap resampling, pre-map sampling, delta
// maintenance). `cmd/earlbench` prints the same tables for reading.
package repro_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/bootstrap"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/pool"
	"repro/internal/sampling"
	"repro/internal/workload"

	"repro/internal/dfs"
)

// benchRecs keeps the measured-run sizes CI-friendly; earlbench uses
// larger defaults for nicer tables.
const benchRecs = 1 << 17

func runFig(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("figure produced no rows")
		}
	}
}

func BenchmarkFig2a_CvVsB(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig2a(1) })
}

func BenchmarkFig2b_CvVsN(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig2b(1) })
}

func BenchmarkFig3_IntraIterSavings(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig3(1) })
}

func BenchmarkFig5_MeanEarlVsStock(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig5(benchRecs, 1) })
}

func BenchmarkFig6_Median(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig6(benchRecs/2, 1) })
}

func BenchmarkFig7_KMeans(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig7(benchRecs/4, 1) })
}

func BenchmarkFig8_SSABEvsTheory(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig8(1) })
}

func BenchmarkFig9_PreVsPostMap(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig9(benchRecs/2, 1) })
}

func BenchmarkFig9Ablation_SamplerBias(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig9Ablation(benchRecs/4, 1) })
}

func BenchmarkFig10_UpdateOverhead(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.Fig10(1) })
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// The small-B regime SSABE's phase 1 lives in, on one worker.
func BenchmarkBootstrapMonteCarloMean(b *testing.B) {
	benchParallelMC(b, 10_000, 30, 1, bootstrap.Mean)
}

func BenchmarkBootstrapMonteCarloMedian(b *testing.B) {
	benchParallelMC(b, 10_000, 30, 1, bootstrap.Median)
}

// ---------------------------------------------------------------------
// The bootstrap engine: one worker vs a sharded worker pool. The p1
// variants run the engine on one worker (its sequential floor); pMax
// uses GOMAXPROCS. Values are bit-identical across parallelism for a
// fixed seed, so the speedup is pure scheduling.

func benchParallelMC(b *testing.B, n, B, par int, f bootstrap.Statistic) {
	b.Helper()
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(1, 2))
		if _, err := bootstrap.ParallelMonteCarlo(rng, xs, f, B, par); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLabel(par int) string {
	if par == 0 {
		return fmt.Sprintf("pmax=%d", pool.Workers(0))
	}
	return fmt.Sprintf("p=%d", par)
}

func BenchmarkBootstrapParallelMean(b *testing.B) {
	for _, sz := range []struct{ n, B int }{
		{10_000, 4000},
		{100_000, 400},
		{1_000_000, 100},
	} {
		for _, par := range []int{1, 2, 4, 0} {
			name := fmt.Sprintf("n=%d/B=%d/%s", sz.n, sz.B, benchLabel(par))
			b.Run(name, func(b *testing.B) { benchParallelMC(b, sz.n, sz.B, par, bootstrap.Mean) })
		}
	}
}

func BenchmarkBootstrapParallelMedian(b *testing.B) {
	for _, par := range []int{1, 4, 0} {
		name := fmt.Sprintf("n=10000/B=1000/%s", benchLabel(par))
		b.Run(name, func(b *testing.B) { benchParallelMC(b, 10_000, 1000, par, bootstrap.Median) })
	}
}

func BenchmarkBootstrapParallelMovingBlock(b *testing.B) {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 100_000, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	blockLen := bootstrap.AutoBlockLength(len(xs))
	for _, par := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("n=100000/B=400/%s", benchLabel(par)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(1, 2))
				if _, err := bootstrap.ParallelMovingBlock(rng, xs, blockLen, bootstrap.Mean, 400, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPreMapSample(b *testing.B) {
	fsys := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2, DataNodes: 5, Seed: 1})
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 200_000, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	if err := fsys.WriteFile("/b", workload.EncodeLinesFixed(xs)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sampling.NewPreMap(fsys, "/b", 0, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Sample(1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaMaintainerGrow(b *testing.B) {
	ds, err := workload.NumericSpec{Dist: workload.Gaussian, N: 4096, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := delta.New(delta.Config{Reducer: jobs.Mean().Reducer, B: 30, Seed: uint64(i), Key: "b"})
		if err != nil {
			b.Fatal(err)
		}
		for g := 0; g < 4; g++ {
			if err := m.Grow(ds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkNaiveMaintainerGrow(b *testing.B) {
	ds, err := workload.NumericSpec{Dist: workload.Gaussian, N: 4096, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := delta.NewNaive(delta.Config{Reducer: jobs.Mean().Reducer, B: 30, Seed: uint64(i), Key: "b"})
		if err != nil {
			b.Fatal(err)
		}
		for g := 0; g < 4; g++ {
			if err := m.Grow(ds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBootstrapParallelDeltaGrow measures the EARL incremental loop
// (update + re-bootstrap per delta batch) on the per-resample worker
// pool, optimized and naive maintainers alike.
func BenchmarkBootstrapParallelDeltaGrow(b *testing.B) {
	ds, err := workload.NumericSpec{Dist: workload.Gaussian, N: 16_384, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("opt/B=100/%s", benchLabel(par)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := delta.New(delta.Config{Reducer: jobs.Mean().Reducer, B: 100, Seed: 1, Key: "b", Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				for g := 0; g < 4; g++ {
					if err := m.Grow(ds); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("naive/B=100/%s", benchLabel(par)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := delta.NewNaive(delta.Config{Reducer: jobs.Mean().Reducer, B: 100, Seed: 1, Key: "b", Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
				for g := 0; g < 4; g++ {
					if err := m.Grow(ds); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkKMeansFitSample(b *testing.B) {
	pts, _, err := workload.MixtureSpec{K: 4, Dim: 2, N: 5000, Spread: 2, Sep: 100, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (jobs.KMeans{K: 4, Seed: uint64(i)}).Fit(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSketchC(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.AblationSketchC(1) })
}

func BenchmarkAblationSSABE(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.AblationSSABE(1) })
}

func BenchmarkAblationPipeline(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.AblationPipeline(benchRecs/4, 1) })
}

func BenchmarkAblationJackknife(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.AblationJackknife(1) })
}

func BenchmarkAppendixA(b *testing.B) {
	runFig(b, func() (*experiments.Table, error) { return experiments.AppendixA(1) })
}
