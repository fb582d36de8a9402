package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// Fig7 reproduces Figure 7: K-Means with EARL vs stock Hadoop. The stock
// flow runs one MR job per Lloyd iteration over the whole point file;
// EARL clusters a sample with a bootstrap bound on the clustering cost
// (§6.3), winning twice — less data per pass, and faster convergence on
// the smaller set. Both fits are also checked against the generator's
// true centers (the paper: within 5% of optimal).
func Fig7(laptopPts int, seed uint64) (*Table, error) {
	if laptopPts <= 0 {
		laptopPts = 200_000
	}
	model := simcost.Hadoop2012()
	const k = 4
	kcfg := jobs.KMeans{K: k, Seed: seed + 1}

	pts, truth, err := workload.MixtureSpec{
		K: k, Dim: 2, N: laptopPts, Spread: 2.0, Sep: 120, Seed: seed,
	}.Generate()
	if err != nil {
		return nil, err
	}
	ptBytes := len(workload.EncodePoints(pts))

	// Stock iterated-MR K-Means.
	env, err := core.NewEnv(core.EnvConfig{BlockSize: 1 << 16, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := env.FS.WriteFile("/pts", workload.EncodePoints(pts)); err != nil {
		return nil, err
	}
	env.Metrics.Reset()
	startStock := time.Now()
	run, release := env.Open(env.Metrics)
	stockFit, err := kcfg.FitMR(run.View(), run.Metrics, "/pts")
	release()
	if err != nil {
		return nil, err
	}
	stockReal := time.Since(startStock)
	stockCost := env.Metrics.Snapshot()
	stockErr, err := jobs.CentroidError(stockFit.Centers, truth)
	if err != nil {
		return nil, err
	}

	// EARL early K-Means.
	env2, err := core.NewEnv(core.EnvConfig{BlockSize: 1 << 16, Seed: seed + 2})
	if err != nil {
		return nil, err
	}
	if err := env2.FS.WriteFile("/pts", workload.EncodePoints(pts)); err != nil {
		return nil, err
	}
	env2.Metrics.Reset()
	startEarl := time.Now()
	rep, err := core.RunKMeans(env2, "/pts", kcfg, core.KMeansOptions{Sigma: 0.05, Seed: seed + 3})
	if err != nil {
		return nil, err
	}
	earlReal := time.Since(startEarl)
	earlCost := env2.Metrics.Snapshot()
	earlErr, err := jobs.CentroidError(rep.Centers, truth)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Figure 7 — K-Means: EARL vs stock Hadoop (modeled, paper testbed)",
		Columns: []string{"points", "data", "stock", "EARL", "speedup"},
	}
	const hdfsBlock = 64 << 20
	perPt := float64(ptBytes) / float64(laptopPts)
	for _, mult := range []float64{1, 4, 16, 64, 256, 1024} {
		nPts := float64(laptopPts) * mult
		sizeBytes := nPts * perPt
		// Stock: every Lloyd iteration scans everything; scale data terms
		// and per-iteration map tasks.
		sc := stockCost.ScaleAll(mult)
		sc.MapTasks = (int64(sizeBytes/hdfsBlock) + 1) * int64(stockFit.Iterations+1)
		sc.JobStartups = stockCost.JobStartups // one per Lloyd iteration, size-independent
		tStock := model.Duration(sc)
		// EARL: sample-driven, flat in data size.
		tEarl := model.PipelinedDuration(earlCost)
		t.AddRow(
			fmt.Sprintf("%.0f", nPts),
			fmt.Sprintf("%.2fGB", sizeBytes/(1<<30)),
			fms(tStock), fms(tEarl),
			f1(float64(tStock)/float64(tEarl))+"x",
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("stock: %d Lloyd iterations as MR jobs, real %.0f ms; centroid error vs truth %.2f%%",
			stockFit.Iterations, stockReal.Seconds()*1000, 100*stockErr),
		fmt.Sprintf("EARL: sample %d of %d pts, %d Lloyd iterations, cost cv %.3f, real %.0f ms; centroid error vs truth %.2f%% (paper bound: 5%%)",
			rep.SampleSize, laptopPts, rep.LloydIters, rep.CV, earlReal.Seconds()*1000, 100*earlErr),
		"EARL's two wins (§6.3): the sample is small, and K-Means converges faster on smaller data")
	return t, nil
}
