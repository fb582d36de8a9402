package core

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/jobs"
	"repro/internal/sampling"
	"repro/internal/simcost"
	"repro/internal/stats"
	"repro/internal/workload"
)

// KMeansOptions tunes RunKMeans.
type KMeansOptions struct {
	Sigma float64 // target cv of the per-point clustering cost; 0.05 if 0
	Seed  uint64
}

// kmeansB is the early K-Means run's bootstraps of the cost
// distribution. The starting sample is max(1000, 100·K) points, and the
// expansion cap is MaxSampleShare of them.
const kmeansB = 30

// KMeansReport is the outcome of an early K-Means run.
type KMeansReport struct {
	Centers     []workload.Point
	CostPerPt   float64 // mean squared distance to nearest center, on the sample
	CV          float64 // bootstrap cv of CostPerPt at termination
	SampleSize  int
	Iterations  int // EARL expansion iterations (not Lloyd iterations)
	LloydIters  int // Lloyd iterations of the final fit
	Converged   bool
	EstTotalPts int64
}

// RunKMeans is EARL applied to the advanced-mining workload of §6.3: the
// unmodified K-Means algorithm runs over a uniform sample of the point
// file, and the bootstrap attaches an error estimate to the clustering
// cost. While cv > σ the sample doubles (with the smaller-data
// convergence bonus the paper highlights: fewer Lloyd iterations per
// try). The stock-Hadoop comparison for Fig. 7 is jobs.KMeans.FitMR.
// Handed a run's Env (Env.Open) it samples that run's commit; handed
// the cluster's, it opens a run, so every draw reads one commit.
func RunKMeans(env *Env, path string, kcfg jobs.KMeans, opts KMeansOptions) (KMeansReport, error) {
	if env == nil || env.FS == nil || env.Cluster == nil {
		return KMeansReport{}, errors.New("core: incomplete Env")
	}
	if opts.Sigma <= 0 {
		opts.Sigma = 0.05
	}
	env, release := env.openRun()
	defer release()
	sampler, err := sampling.NewPreMap(env.View(), path, 0, opts.Seed)
	if err != nil {
		return KMeansReport{}, err
	}
	env.Metrics.Charge(simcost.Snapshot{JobStartups: 1, MapTasks: 1, ReduceTasks: 1}) // EARL's K-Means is one long-lived job

	rng := rand.New(rand.NewPCG(opts.Seed, 0xab1c5ed5da6d8118))
	var pts []workload.Point
	target := max(100*kcfg.K, 1000)
	rep := KMeansReport{}
	for iter := 1; ; iter++ {
		rep.Iterations = iter
		need := target - len(pts)
		if need > 0 {
			recs, err := sampler.Sample(need)
			if err != nil && !errors.Is(err, sampling.ErrExhausted) {
				return rep, err
			}
			for _, r := range recs {
				p, perr := workload.DecodePoint(r.Line)
				if perr != nil {
					return rep, fmt.Errorf("core: kmeans parse: %w", perr)
				}
				pts = append(pts, p)
			}
		}
		if len(pts) < kcfg.K {
			return rep, fmt.Errorf("core: only %d points sampled for K=%d", len(pts), kcfg.K)
		}
		fit, err := kcfg.Fit(pts)
		if err != nil {
			return rep, err
		}
		// Lloyd passes over the sample are the job's CPU cost.
		env.Metrics.Charge(simcost.Snapshot{RecordsReduced: int64(len(pts)) * int64(fit.Iterations)})

		// Bootstrap the per-point cost of the fitted centers.
		values := make([]float64, kmeansB)
		buf := make([]workload.Point, len(pts))
		for b := range values {
			for j := range buf {
				buf[j] = pts[rng.IntN(len(pts))]
			}
			values[b] = jobs.WCSSOf(fit.Centers, buf) / float64(len(buf))
		}
		env.Metrics.Charge(simcost.Snapshot{RecordsReduced: int64(len(pts)) * kmeansB})
		cv, err := stats.CV(values)
		if err != nil {
			return rep, err
		}
		cost, _ := stats.Mean(values)

		rep.Centers = fit.Centers
		rep.CostPerPt = cost
		rep.CV = cv
		rep.SampleSize = len(pts)
		rep.LloydIters = fit.Iterations
		rep.EstTotalPts = sampler.EstimatedTotalRecords()
		if cv <= opts.Sigma {
			rep.Converged = true
			return rep, nil
		}
		maxPts := int(MaxSampleShare * float64(rep.EstTotalPts))
		next := target * 2
		if next > maxPts {
			next = maxPts
		}
		if next <= target {
			return rep, nil // cap reached; report achieved accuracy
		}
		target = next
	}
}
