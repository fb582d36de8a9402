package earl

import (
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/plan"
)

// PlanSpec is the engine-wide canonical query description — the same
// JSON spec earld's HTTP API accepts and earlctl's flags build — over
// the query-plan algebra: σ (Filter), π (Derive), γ (GroupBy) and the
// aggregate set (Stats), compiled down onto the sampling engine with the
// filter pushed BELOW sampling.
//
//	res, err := cluster.RunPlan(earl.PlanSpec{
//		Path:   "/data",
//		Filter: "v > 0 && v < 100",
//		Derive: "log(v)",
//		Stats:  []string{"mean", "p95"},
//	}, earl.Options{Sigma: 0.05})
//
// Expressions read the parsed record: v (alias value) is the numeric
// value, key is the record's group key (its use switches the input to
// "key\tvalue" records). The filter runs before sampling — sample-size
// planning, the expansion cap and the reported confidence intervals are
// all relative to the filtered subpopulation (sum/count estimate the
// subpopulation's total/cardinality). Grouping is by the record key
// (GroupBy: "key") or by a numeric bucketing expression, e.g.
// GroupBy: "floor(v / 10)"; grouped plans take exactly one statistic.
// Stats are jobs.ByName spellings (mean, sum, count, median, variance,
// stddev, proportion, pNN, q0.NN); several share ONE sampling pass, and
// the default is mean.
type PlanSpec = plan.Spec

// PlanResult is a plan run's outcome: per-statistic Reports for scalar
// plans, per-group Groups when the plan groups.
type PlanResult = core.PlanResult

// RunPlan executes a plan spec end to end (σ/π/γ pushed into the
// sampling sources; degenerate specs are bit-identical to the same
// statistics run through Run/RunMulti/RunGrouped). Spec knobs left
// unset (σ, sampler, seed) inherit from opts; the worker-pool size is
// opts.Parallelism alone.
func (c *Cluster) RunPlan(spec PlanSpec, opts Options) (*PlanResult, error) {
	return core.RunPlan(c.env, spec, opts)
}

// WatchPlan opens a maintained query from a plan spec: the compiled
// σ/π/γ program rides the retained samplers, so every Refresh draws
// post-filter transformed records from appended data only.
func (c *Cluster) WatchPlan(spec PlanSpec, opts Options) (*Watch, error) {
	pq, err := core.PreparePlan(spec, opts)
	if err != nil {
		return nil, err
	}
	return live.Open(c.env, pq)
}
