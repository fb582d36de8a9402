package core

import (
	"math"
	"sort"

	"repro/internal/bootstrap"
	"repro/internal/jobs"
	"repro/internal/stats"
)

// The report types, and finishReport — how one statistic's result
// distribution becomes the user-facing numbers (the sinks render from
// it, for a run and for every maintained refresh alike).

// GroupResult is one group's early estimate.
type GroupResult struct {
	Estimate   float64
	CV         float64
	SampleSize int
}

// GroupedReport is the outcome of a grouped early run.
type GroupedReport struct {
	Job        string
	Groups     map[string]GroupResult
	Iterations int
	Converged  bool // every (sufficiently sampled) group reached σ
	SampleSize int  // total records consumed
	FailedMaps int
}

// confidence is the level of every reported interval.
const confidence = 0.95

// finishReport turns a result distribution into the user-facing numbers:
// the mean estimate, the percentile confidence interval, and the
// p-corrected versions of all three. The CI bounds pass through the user
// job's correct() exactly like the estimate — an uncorrected interval
// around a corrected extensive statistic (SUM, COUNT) could never cover
// the true value.
//
// selSE is the relative standard error of the estimated (sub)population
// size; it is nonzero only when a pushed-down filter made the
// population an ESTIMATE (effective N = raw N × pilot selectivity)
// rather than a byte-derived count. Extensive statistics divide by that
// estimate, so their corrected values inherit its noise on top of the
// bootstrap's — the percentile interval alone would systematically
// under-cover the subpopulation truth. The interval is widened by the
// delta method: the selectivity term (z·selSE·estimate at the report's
// confidence level) combines with each percentile half-width in
// quadrature. p-invariant statistics (mean, quantiles) never touch the
// population estimate and are left exactly as before.
func finishReport(job jobs.Numeric, opts Options, vals []float64, cv, p, selSE float64) (Report, error) {
	est, err := stats.Mean(vals)
	if err != nil {
		return Report{}, err
	}
	res := bootstrap.Result{Values: vals}
	lo, hi, err := res.PercentileCI(confidence)
	if err != nil {
		return Report{}, err
	}
	if p > 1 {
		p = 1
	}
	cEst := job.Reducer.Correct(est, p)
	cLo, cHi := job.Reducer.Correct(lo, p), job.Reducer.Correct(hi, p)
	if cLo > cHi {
		cLo, cHi = cHi, cLo
	}
	if selSE > 0 && pSensitive(job, p) {
		z, zerr := stats.NormalQuantile(0.5 + confidence/2)
		if zerr != nil {
			return Report{}, zerr
		}
		extra := z * selSE * math.Abs(cEst)
		cLo = cEst - math.Sqrt((cEst-cLo)*(cEst-cLo)+extra*extra)
		cHi = cEst + math.Sqrt((cHi-cEst)*(cHi-cEst)+extra*extra)
	}
	return Report{
		Job:         job.Name,
		Estimate:    cEst,
		Uncorrected: est,
		CV:          cv,
		CILo:        cLo,
		CIHi:        cHi,
		Converged:   cv <= opts.Sigma,
		FractionP:   p,
	}, nil
}

// pSensitive reports whether the job's correction actually uses the
// sampling fraction (probed numerically: extensive statistics like SUM
// and COUNT scale by 1/p, intensive ones return their input unchanged).
func pSensitive(job jobs.Numeric, p float64) bool {
	return job.Reducer.Correct(1, p) != 1 || job.Reducer.Correct(-3, p) != -3
}

// shareSE is the relative standard error of the share hits/draws as an
// estimate of the proportion it samples: 0 when there is nothing to
// estimate (no draws, no hits, or every draw a hit).
func shareSE(hits, draws int64) float64 {
	if hits <= 0 || hits >= draws {
		return 0
	}
	share := float64(hits) / float64(draws)
	return math.Sqrt((1 - share) / (share * float64(draws)))
}

// SortedGroupKeys returns the report's keys in order, for stable output.
func (g GroupedReport) SortedGroupKeys() []string {
	keys := make([]string, 0, len(g.Groups))
	for k := range g.Groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
