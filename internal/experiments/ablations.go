package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/aes"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/simcost"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationSketchC sweeps the sketch constant c of §4.1. Larger sketches
// cost memory but absorb more delta-maintenance updates before touching
// the disk layer; the paper: "a larger c will cost more memory space but
// will introduce less randomized update latency". The 3-sigma argument
// says c=3 should eliminate almost all refreshes.
func AblationSketchC(seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Ablation — sketch constant c (§4.1): disk refreshes during delta maintenance (mean, B=20, 6 growths)",
		Columns: []string{"c", "sketch size (n=32k)", "disk seeks", "bytes touched", "maintenance ms"},
	}
	for _, c := range []float64{0.25, 0.5, 1, 2, 3, 5} {
		var m simcost.Metrics
		maint, err := delta.New(delta.Config{
			Reducer: jobs.Mean().Reducer, B: 20, C: c, Seed: seed, Metrics: &m, Key: "abl-c",
			Parallelism: Parallelism,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for g := 0; g < 6; g++ {
			ds, err := workload.NumericSpec{Dist: workload.Gaussian, N: 1 << 13, Seed: seed + uint64(g)}.Generate()
			if err != nil {
				return nil, err
			}
			if err := maint.Grow(ds); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start)
		s := m.Snapshot()
		sketchSize := int(c * 181) // c·√32768 ≈ c·181
		t.AddRow(
			fmt.Sprintf("%.2f", c),
			fmt.Sprintf("%d", sketchSize),
			fmt.Sprintf("%d", s.DiskSeeks),
			fmt.Sprintf("%d", s.BytesRead+s.BytesWritten),
			fmt.Sprintf("%.0f", elapsed.Seconds()*1000),
		)
	}
	t.Notes = append(t.Notes,
		"the paper's 3-sigma sizing: c=3 covers ≈99.7% of per-iteration updates — seeks should hit ~0 there",
		"undersized sketches (c<1) force the §4.1 disk path: commit + resample on every exhaustion")
	return t, nil
}

// AblationSSABE compares SSABE against the §3.2 strawman it replaces:
// "pick an initial sample size … if the resulting error is greater than
// σ then the sample size is increased (e.g., doubled)" — and likewise a
// naive doubling of B. The cost is counted in records drawn and
// statistic evaluations until the target σ is actually met.
func AblationSSABE(seed uint64) (*Table, error) {
	const sigma = 0.05
	data, err := workload.NumericSpec{Dist: workload.Uniform, N: 1 << 17, Seed: seed}.Generate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xab1))
	drawSample := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = data[rng.IntN(len(data))]
		}
		return out
	}

	// SSABE.
	pilot := drawSample(4096)
	plan, err := aes.SSABE(pilot, int64(len(data)), aes.Config{
		Reducer: jobs.Mean().Reducer, Sigma: sigma, Seed: seed + 1, Key: "abl",
		Parallelism: Parallelism,
	})
	if err != nil {
		return nil, err
	}
	ssabeEvals := plan.B + 5*plan.B // phase 1 values + phase 2 (L=5 growths × B finalizes)
	ssabeRecords := 4096

	// Naive doubling: start at n=16, B=10; double n (and B every other
	// round) until the measured cv ≤ σ; every round redraws and
	// recomputes everything.
	n, b := 16, 10
	naiveRecords, naiveEvals, rounds := 0, 0, 0
	var finalCV float64
	for {
		rounds++
		s := drawSample(n)
		naiveRecords += n
		res, err := bootstrap.ParallelMonteCarlo(rng, s, bootstrap.Mean, b, Parallelism)
		if err != nil {
			return nil, err
		}
		naiveEvals += b
		finalCV = res.CV
		if res.CV <= sigma || n >= len(data)/2 {
			break
		}
		n *= 2
		if rounds%2 == 0 {
			b *= 2
		}
	}

	t := &Table{
		Title:   "Ablation — SSABE (§3.2) vs naive doubling: cost to reach σ=5% (mean)",
		Columns: []string{"strategy", "iterations", "records drawn", "f evaluations", "final B", "final n", "job submissions"},
	}
	// SSABE runs its pilot in LOCAL mode — no cluster job until the one
	// real run; every naive round is a fresh MR job (6 s submission on
	// the paper's testbed, §3.2's "fast estimation … without launching a
	// separate JVM").
	model := simcost.Hadoop2012()
	t.AddRow("SSABE", "1", fmt.Sprintf("%d", ssabeRecords), fmt.Sprintf("%d", ssabeEvals),
		fmt.Sprintf("%d", plan.B), fmt.Sprintf("%d", plan.N),
		fmt.Sprintf("1 (%.0fs)", model.JobStartup.Seconds()))
	t.AddRow("naive doubling", fmt.Sprintf("%d", rounds), fmt.Sprintf("%d", naiveRecords),
		fmt.Sprintf("%d", naiveEvals), fmt.Sprintf("%d", b), fmt.Sprintf("%d", n),
		fmt.Sprintf("%d (%.0fs)", rounds, float64(rounds)*model.JobStartup.Seconds()))
	t.Notes = append(t.Notes,
		fmt.Sprintf("naive final cv %.4f; SSABE solves the fitted curve once and needs a single iteration (§3.2: \"our algorithm requires only a single iteration\")", finalCV),
		"the naive strategy 'may result in an overestimate of the sample size and the number of resamples' — compare final n and B")
	return t, nil
}

// AblationPipeline measures what the pipelined execution mode buys the
// EARL loop: shuffle time hidden behind the map phase (§2.1's first
// Hadoop modification, inherited from HOP).
func AblationPipeline(laptopRecs int, seed uint64) (*Table, error) {
	if laptopRecs <= 0 {
		laptopRecs = 1 << 18
	}
	model := simcost.Hadoop2012()
	env, err := measureEnv(laptopRecs, seed)
	if err != nil {
		return nil, err
	}
	if _, err := core.Run(env, jobs.Mean(), "/data", core.Options{
		Sigma: 0.05, Seed: seed + 1, ForceB: 30, ForceN: 4096,
		Parallelism: Parallelism,
	}); err != nil {
		return nil, err
	}
	cost := env.Metrics.Snapshot()
	t := &Table{
		Title:   "Ablation — pipelined vs batch shuffle for the EARL sampling job",
		Columns: []string{"execution", "modeled time", "shuffle bytes"},
	}
	t.AddRow("batch (stock shuffle)", fms(model.Duration(cost)), fmt.Sprintf("%d", cost.BytesShuffled))
	t.AddRow("pipelined (EARL/HOP)", fms(model.PipelinedDuration(cost)), fmt.Sprintf("%d", cost.BytesShuffled))
	t.Notes = append(t.Notes,
		"pipelining overlaps the mapper→reducer transfer with mapping; EARL additionally needs it so reducers can estimate errors before mappers finish (§2.1)")
	return t, nil
}

// AblationJackknife is the motivation for the paper's choice of the
// bootstrap (§3): on the mean both resampling methods agree with theory,
// on the median the delete-1 jackknife is inconsistent.
func AblationJackknife(seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Ablation — bootstrap vs jackknife error estimates (§3): why EARL uses the bootstrap",
		Columns: []string{"statistic", "trial", "bootstrap stderr", "jackknife stderr", "jack/boot"},
	}
	for _, stat := range []struct {
		name string
		f    bootstrap.Statistic
	}{{"mean", bootstrap.Mean}, {"median", bootstrap.Median}} {
		for trial := 0; trial < 3; trial++ {
			xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 400, Seed: seed + uint64(trial)}.Generate()
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewPCG(seed+uint64(trial), 0x6a6b))
			boot, err := bootstrap.ParallelMonteCarlo(rng, xs, stat.f, 400, Parallelism)
			if err != nil {
				return nil, err
			}
			jack, err := bootstrap.Jackknife(xs, stat.f)
			if err != nil {
				return nil, err
			}
			t.AddRow(stat.name, fmt.Sprintf("%d", trial+1),
				f4(boot.StdErr), f4(jack.StdErr), f3(jack.StdErr/boot.StdErr))
		}
	}
	t.Notes = append(t.Notes,
		"mean: the ratio sits near 1 on every trial — either method works",
		"median: the jackknife ratio swings wildly across trials (delete-1 collapses onto ~2 order statistics) — \"jackknife does not work for many functions such as the median\" (§3)")
	return t, nil
}

// AppendixA regenerates the appendix's two extensions: categorical data
// via binomial proportions with z-intervals, and dependent data via the
// moving-block bootstrap.
func AppendixA(seed uint64) (*Table, error) {
	t := &Table{
		Title:   "Appendix A — categorical data (z-interval) and dependent data (block bootstrap)",
		Columns: []string{"experiment", "estimate", "error measure", "value", "comment"},
	}
	// Categorical: proportion of successes with a 95% z-interval.
	const trueP = 0.3
	xs, err := workload.CategoricalSpec{P: trueP, N: 200_000, Seed: seed}.Generate()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xaa))
	sample := make([]float64, 2000)
	for i := range sample {
		sample[i] = xs[rng.IntN(len(xs))]
	}
	p, hw, err := bootstrap.Proportion(sample, 0.95)
	if err != nil {
		return nil, err
	}
	covered := "no"
	if p-hw <= trueP && trueP <= p+hw {
		covered = "yes"
	}
	t.AddRow("proportion (n=2000)", f4(p), "z 95% half-width", f4(hw),
		fmt.Sprintf("true p=%.2f inside interval: %s", trueP, covered))

	// Dependent data: AR(1) mean stderr, iid vs moving-block bootstrap,
	// vs the analytic truth for an AR(1) mean.
	series, err := workload.AR1Spec{Phi: 0.8, Sigma: 1, Mu: 10, N: 8000, Seed: seed + 1}.Generate()
	if err != nil {
		return nil, err
	}
	iid, err := bootstrap.ParallelMonteCarlo(rng, series, bootstrap.Mean, 300, Parallelism)
	if err != nil {
		return nil, err
	}
	blockLen := bootstrap.AutoBlockLength(len(series)) * 4
	blk, err := bootstrap.ParallelMovingBlock(rng, series, blockLen, bootstrap.Mean, 300, Parallelism)
	if err != nil {
		return nil, err
	}
	// Analytic: var(x̄) ≈ (σ²/(1−φ²))·(1+φ)/(1−φ)/n for AR(1).
	phi := 0.8
	se := math.Sqrt((1 / (1 - phi*phi)) * (1 + phi) / (1 - phi) / float64(len(series)))
	m, _ := stats.Mean(series)
	t.AddRow("AR(1) mean, iid bootstrap", f4(m), "stderr", f4(iid.StdErr),
		fmt.Sprintf("analytic stderr ≈ %.4f — iid understates", se))
	t.AddRow(fmt.Sprintf("AR(1) mean, block bootstrap (b=%d)", blockLen), f4(m), "stderr", f4(blk.StdErr),
		"within-block dependence preserved (App. A)")
	t.Notes = append(t.Notes,
		"the binomial proportion is asymptotically normal, so z-tests apply on top of EARL's sample (App. A)",
		"block sampling of consecutive observations is the paper's prescription for b-dependent data")
	return t, nil
}
