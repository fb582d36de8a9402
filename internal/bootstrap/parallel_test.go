package bootstrap

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

func gaussianSample(t testing.TB, n int) []float64 {
	t.Helper()
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

// TestParallelMonteCarloDeterministicAcrossParallelism is the engine's
// core contract: for the same caller rng state, Result.Values is
// bit-identical at parallelism 1, 4 and GOMAXPROCS.
func TestParallelMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	xs := gaussianSample(t, 5000)
	const B = 333 // not a multiple of shardSize: exercises the ragged tail shard
	var ref []float64
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rng := rand.New(rand.NewPCG(7, 11))
		res, err := ParallelMonteCarlo(rng, xs, Median, B, par)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != B {
			t.Fatalf("parallelism %d: %d values, want %d", par, len(res.Values), B)
		}
		if ref == nil {
			ref = res.Values
			continue
		}
		for i := range ref {
			if res.Values[i] != ref[i] {
				t.Fatalf("parallelism %d: Values[%d] = %v, want %v (bit-identical)", par, i, res.Values[i], ref[i])
			}
		}
	}
}

func TestParallelMovingBlockDeterministicAcrossParallelism(t *testing.T) {
	xs := gaussianSample(t, 3000)
	const B = 100
	blockLen := AutoBlockLength(len(xs))
	var ref []float64
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rng := rand.New(rand.NewPCG(13, 17))
		res, err := ParallelMovingBlock(rng, xs, blockLen, Mean, B, par)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Values
			continue
		}
		for i := range ref {
			if res.Values[i] != ref[i] {
				t.Fatalf("parallelism %d: Values[%d] = %v, want %v", par, i, res.Values[i], ref[i])
			}
		}
	}
}

func TestParallelMonteCarloAdvancesCallerRNGIndependentOfParallelism(t *testing.T) {
	xs := gaussianSample(t, 100)
	after := make([]uint64, 0, 2)
	for _, par := range []int{1, 8} {
		rng := rand.New(rand.NewPCG(21, 22))
		if _, err := ParallelMonteCarlo(rng, xs, Mean, 50, par); err != nil {
			t.Fatal(err)
		}
		after = append(after, rng.Uint64())
	}
	if after[0] != after[1] {
		t.Fatalf("caller rng advanced differently: %d vs %d", after[0], after[1])
	}
}

func TestParallelVariantsShareSentinelErrors(t *testing.T) {
	xs := gaussianSample(t, 50)
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := ParallelMonteCarlo(rng, xs, Mean, 1, 2); !errors.Is(err, ErrTooFewResamples) {
		t.Fatalf("B=1: got %v, want ErrTooFewResamples", err)
	}
	if _, err := ParallelMovingBlock(rng, xs, 5, Mean, 0, 2); !errors.Is(err, ErrTooFewResamples) {
		t.Fatalf("B=0: got %v, want ErrTooFewResamples", err)
	}
	if _, err := ParallelMovingBlock(rng, xs, 0, Mean, 10, 2); !errors.Is(err, ErrBlockLength) {
		t.Fatalf("blockLen=0: got %v, want ErrBlockLength", err)
	}
	if _, err := ParallelMovingBlock(rng, xs, -1, Mean, 10, 2); !errors.Is(err, ErrBlockLength) {
		t.Fatalf("blockLen=-1: got %v, want ErrBlockLength", err)
	}
	if _, err := ParallelMovingBlock(rng, xs, len(xs)+1, Mean, 10, 2); !errors.Is(err, ErrBlockLength) {
		t.Fatalf("blockLen>n: got %v, want ErrBlockLength", err)
	}
	if _, err := ParallelMonteCarlo(rng, nil, Mean, 10, 2); !errors.Is(err, stats.ErrEmpty) {
		t.Fatalf("empty sample: got %v, want ErrEmpty", err)
	}
}

// Parallelism 1 is the sequential case of the same engine; it must
// reject bad arguments with the same sentinels.
func TestSequentialVariantsShareSentinelErrors(t *testing.T) {
	xs := gaussianSample(t, 50)
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := ParallelMonteCarlo(rng, xs, Mean, 1, 1); !errors.Is(err, ErrTooFewResamples) {
		t.Fatalf("MonteCarlo B=1: got %v, want ErrTooFewResamples", err)
	}
	if _, err := ParallelMovingBlock(rng, xs, 5, Mean, 1, 1); !errors.Is(err, ErrTooFewResamples) {
		t.Fatalf("MovingBlock B=1: got %v, want ErrTooFewResamples", err)
	}
	if _, err := ParallelMovingBlock(rng, xs, -1, Mean, 10, 1); !errors.Is(err, ErrBlockLength) {
		t.Fatalf("MovingBlock blockLen=-1: got %v, want ErrBlockLength", err)
	}
}

// statistic errors surfaced from a worker must carry the resample index
// wrapping.
func TestParallelMonteCarloPropagatesStatisticError(t *testing.T) {
	xs := gaussianSample(t, 50)
	boom := errors.New("boom")
	calls := 0
	f := Statistic(func(s []float64) (float64, error) {
		calls++
		if calls > 1 { // let f(original) succeed, fail on resamples
			return 0, boom
		}
		return stats.Mean(s)
	})
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := ParallelMonteCarlo(rng, xs, f, 64, 1); !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
}

// TestZeroEstimateCVReportsInf is the regression test for the satellite
// bugfix: a zero-mean result distribution with spread must report
// CV = +Inf (unconverged), not 0 (perfectly converged) — otherwise the
// driver's cv ≤ σ check would terminate a run that has learned nothing.
func TestZeroEstimateCVReportsInf(t *testing.T) {
	res, err := summarize([]float64{-1, 1, -1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("estimate %v, want 0", res.Estimate)
	}
	if !math.IsInf(res.CV, 1) {
		t.Fatalf("CV = %v for zero estimate with spread, want +Inf", res.CV)
	}
	// Degenerate-but-converged: all values identical at zero → CV 0.
	res, err = summarize([]float64{0, 0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CV != 0 {
		t.Fatalf("CV = %v for constant-zero distribution, want 0", res.CV)
	}
}

// The same guard must hold end to end through the Monte-Carlo paths.
func TestMonteCarloZeroMeanStatisticNotConverged(t *testing.T) {
	// A sign statistic over a symmetric ±1 sample: resample means are
	// near zero, and some seeds land exactly on zero for small samples.
	sign := Statistic(func(s []float64) (float64, error) {
		m, err := stats.Mean(s)
		if err != nil {
			return 0, err
		}
		if m > 0 {
			return 1, nil
		}
		if m < 0 {
			return -1, nil
		}
		return 0, nil
	})
	xs := make([]float64, 100)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	for name, run := range map[string]func() (Result, error){
		"p=1": func() (Result, error) {
			return ParallelMonteCarlo(rand.New(rand.NewPCG(5, 6)), xs, sign, 200, 1)
		},
		"p=4": func() (Result, error) {
			return ParallelMonteCarlo(rand.New(rand.NewPCG(5, 6)), xs, sign, 200, 4)
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.StdErr > 0 && res.Estimate == 0 && !math.IsInf(res.CV, 1) {
			t.Fatalf("%s: zero-mean spread distribution reported CV %v, want +Inf", name, res.CV)
		}
		if res.StdErr > 0 && res.CV == 0 {
			t.Fatalf("%s: CV 0 despite StdErr %v — would falsely terminate the driver", name, res.StdErr)
		}
	}
}
