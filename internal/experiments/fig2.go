package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/bootstrap"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig2a reproduces Figure 2(a): the effect of the number of bootstraps B
// on the estimated error cv, for a fixed sample. The paper's reading:
// the estimate is noisy at tiny B and stabilises by roughly B = 30.
func Fig2a(seed uint64) (*Table, error) {
	const n = 1000
	sample, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
	if err != nil {
		return nil, err
	}
	// Draw the resample values once; cv at B is the cv of the prefix —
	// exactly the incremental procedure EARL's phase 1 runs.
	const maxB = 60
	res, err := bootstrap.ParallelMonteCarlo(rand.New(rand.NewPCG(seed, 0xf2a)), sample, bootstrap.Mean, maxB, Parallelism)
	if err != nil {
		return nil, err
	}
	values := res.Values
	t := &Table{
		Title:   "Figure 2a — effect of the number of bootstraps B on cv (mean, n=1000)",
		Columns: []string{"B", "cv", "|Δcv|/cv"},
	}
	prev := 0.0
	for b := 2; b <= maxB; b += 2 {
		cv, err := stats.CV(values[:b])
		if err != nil {
			return nil, err
		}
		rel := ""
		if prev > 0 {
			rel = f3(abs(cv-prev) / cv)
		}
		t.AddRow(fmt.Sprintf("%d", b), f4(cv), rel)
		prev = cv
	}
	t.Notes = append(t.Notes,
		"paper: ≈30 bootstraps suffice for a confident error estimate (§3.1)",
		"the relative step |Δcv|/cv is SSABE's phase-1 stopping signal")
	return t, nil
}

// Fig2b reproduces Figure 2(b): the effect of the sample size n on cv
// for a fixed B — the error falls as 1/√n, the curve SSABE's phase 2
// fits and inverts.
func Fig2b(seed uint64) (*Table, error) {
	const B = 30
	data, err := workload.NumericSpec{Dist: workload.Gaussian, N: 1 << 17, Seed: seed}.Generate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xf2b))
	t := &Table{
		Title:   "Figure 2b — effect of sample size n on cv (mean, B=30)",
		Columns: []string{"n", "cv", "theory popCV/√n"},
	}
	popCV, err := stats.CV(data)
	if err != nil {
		return nil, err
	}
	ns := []int{}
	cvs := []float64{}
	for n := 64; n <= 1<<15; n *= 2 {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = data[rng.IntN(len(data))]
		}
		res, err := bootstrap.ParallelMonteCarlo(rng, sample, bootstrap.Mean, B, Parallelism)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), f4(res.CV), f4(popCV/math.Sqrt(float64(n))))
		ns = append(ns, n)
		cvs = append(cvs, res.CV)
	}
	curve, err := stats.FitCVCurve(ns, cvs)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fitted cv(n) = %.4g + %.4g/√n (R²=%.3f) — the SSABE phase-2 model", curve.A, curve.B, curve.R2),
		"larger n ⇒ lower error; the fit's inverse picks n for a target σ")
	return t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
