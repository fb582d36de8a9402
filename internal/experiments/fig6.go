package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// Fig6 reproduces Figure 6: computation of the MEDIAN three ways —
// (1) stock Hadoop (exact, full scan), (2) EARL with the original
// (naive) resampling algorithm that redraws and recomputes every
// bootstrap resample on each sample expansion, and (3) EARL with the
// optimized resampling of §4 (delta maintenance + sketches). The paper
// reads ≈3x for naive-EARL over stock and a further ≈4x from the
// optimization.
//
// To exercise the resampling cost (where variants 2 and 3 differ), the
// run forces a small initial sample so the driver performs several
// expansion iterations — the regime §4 optimises.
func Fig6(laptopRecs int, seed uint64) (*Table, error) {
	if laptopRecs <= 0 {
		laptopRecs = 1 << 20
	}
	model := simcost.Hadoop2012()
	job := jobs.Median()
	const sigma = 0.03

	// --- Stock at laptop scale. ----------------------------------------
	env, err := measureEnv(laptopRecs, seed)
	if err != nil {
		return nil, err
	}
	startStock := time.Now()
	if _, _, err := core.RunExactJob(env, job, "/data", 0); err != nil {
		return nil, err
	}
	stockReal := time.Since(startStock)
	stockCost := env.Metrics.Snapshot()

	// --- EARL, naive and optimized resampling. -------------------------
	type variant struct {
		name    string
		disable bool
		cost    simcost.Snapshot
		real    time.Duration
		rep     core.Report
	}
	variants := []*variant{
		{name: "EARL naive resampling", disable: true},
		{name: "EARL optimized (§4)", disable: false},
	}
	for _, v := range variants {
		env, err := measureEnv(laptopRecs, seed+1)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		// ForceN small ⇒ several Δs expansions, the §4 stress case.
		rep, err := core.Run(env, job, "/data", core.Options{
			Sigma: sigma, Seed: seed + 2,
			ForceB: 30, ForceN: 256,
			DisableDeltaMaintenance: v.disable,
			Parallelism:             Parallelism,
		})
		if err != nil {
			return nil, err
		}
		v.real = time.Since(start)
		v.cost = env.Metrics.Snapshot()
		v.rep = rep
	}

	// --- Resampling-phase microbenchmark (where §4 actually bites): ----
	// grow a median sample by constant Δs increments through both
	// maintainers and time the maintenance alone, at laptop scale.
	resOpt, resNaive, updOpt, updNaive, err := medianMaintenancePhase(seed + 5)
	if err != nil {
		return nil, err
	}

	laptopBytes := float64(laptopRecs) * recordBytes
	t := &Table{
		Title:   "Figure 6 — computation of the MEDIAN: stock vs EARL-naive vs EARL-optimized (modeled, paper testbed)",
		Columns: []string{"data", "stock", "EARL naive", "EARL optimized", "naive speedup", "opt vs naive"},
	}
	const hdfsBlock = 64 << 20
	// The resampling-phase gap, applied on top of the measured job costs:
	// the naive job re-does maintenance work in proportion to its update
	// count; express the extra as modeled CPU records.
	for _, gb := range []float64{0.25, 0.5, 1, 2, 4, 16, 64} {
		sizeBytes := gb * (1 << 30)
		f := sizeBytes / laptopBytes
		sc := stockCost.ScaleAll(f)
		sc.MapTasks = int64(sizeBytes/hdfsBlock) + 1
		tStock := model.Duration(sc)
		tNaive := model.PipelinedDuration(variants[0].cost)
		tOpt := model.PipelinedDuration(variants[1].cost)
		t.AddRow(
			fmt.Sprintf("%gGB", gb),
			fms(tStock), fms(tNaive), fms(tOpt),
			f1(float64(tStock)/float64(tNaive))+"x",
			f1(float64(tNaive)/float64(tOpt))+"x",
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("laptop measurement %d records: exact pass real %.0f ms; naive real %.0f ms (%d iterations, sample %d); optimized real %.0f ms (%d iterations, sample %d)",
			laptopRecs, stockReal.Seconds()*1000,
			variants[0].real.Seconds()*1000, variants[0].rep.Iterations, variants[0].rep.SampleSize,
			variants[1].real.Seconds()*1000, variants[1].rep.Iterations, variants[1].rep.SampleSize),
		fmt.Sprintf("estimates: naive %.3f (cv %.3f), optimized %.3f (cv %.3f)",
			variants[0].rep.Estimate, variants[0].rep.CV, variants[1].rep.Estimate, variants[1].rep.CV),
		fmt.Sprintf("resampling PHASE alone (median, constant Δs growth): naive %.0f ms / %d updates vs optimized %.0f ms / %d updates → %.1fx",
			resNaive.Seconds()*1000, updNaive, resOpt.Seconds()*1000, updOpt,
			float64(resNaive)/float64(resOpt)),
		"paper: naive bootstrap ≈3x over stock at its sizes; the §4 optimization adds ≈4x on the resampling phase",
		"job-level naive≈optimized here because at σ-determined sample sizes the job is startup+pilot dominated; the phase row isolates §4's effect")
	return t, nil
}

// medianMaintenancePhase times just the resample-maintenance work for
// the median under constant-increment growth, naive vs optimized.
func medianMaintenancePhase(seed uint64) (optTime, naiveTime time.Duration, optUpd, naiveUpd int64, err error) {
	const B = 30
	const step = 1 << 13
	red := jobs.Median().Reducer
	opt, err := delta.New(delta.Config{Reducer: red, B: B, Seed: seed, Key: "fig6", Parallelism: Parallelism})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	naive, err := delta.NewNaive(delta.Config{Reducer: red, B: B, Seed: seed, Key: "fig6", Parallelism: Parallelism})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for i := 0; i < 8; i++ {
		ds, err := workload.NumericSpec{Dist: workload.Gaussian, N: step, Seed: seed + uint64(i)}.Generate()
		if err != nil {
			return 0, 0, 0, 0, err
		}
		st := time.Now()
		if err := opt.Grow(ds); err != nil {
			return 0, 0, 0, 0, err
		}
		optTime += time.Since(st)
		st = time.Now()
		if err := naive.Grow(ds); err != nil {
			return 0, 0, 0, 0, err
		}
		naiveTime += time.Since(st)
	}
	return optTime, naiveTime, opt.Updates(), naive.Updates(), nil
}
