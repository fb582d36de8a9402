package earl

import (
	"repro/internal/core"
	"repro/internal/plan"
)

// PlanSpec is the engine-wide canonical query description — the same
// JSON spec earld's HTTP API accepts and earlctl's flags build. A Query
// builder produces one; advanced callers may also construct it directly
// and hand it to RunPlan / WatchPlan.
type PlanSpec = plan.Spec

// PlanResult is a plan run's outcome: per-statistic Reports for scalar
// plans, per-group Groups when the plan groups.
type PlanResult = core.PlanResult

// Query is a fluent builder over the query-plan algebra: σ (Filter),
// π (Derive), γ (GroupBy) and the aggregate set (Stats), compiled down
// onto the sampling engine with the filter pushed BELOW sampling.
//
//	q := earl.NewQuery("/data").
//		Filter("v > 0 && v < 100").
//		Derive("log(v)").
//		Stats("mean", "p95")
//	res, err := q.Run(cluster, earl.Options{Sigma: 0.05})
//
// Expressions read the parsed record: v (alias value) is the numeric
// value, key is the record's group key (its use switches the input to
// "key\tvalue" records). The filter runs before sampling — sample-size
// planning, the expansion cap and the reported confidence intervals are
// all relative to the filtered subpopulation (sum/count estimate the
// subpopulation's total/cardinality). Grouping is by the record key
// (GroupBy("key")) or by a numeric bucketing expression, e.g.
// GroupBy("floor(v / 10)"); grouped plans take exactly one statistic.
type Query struct {
	spec PlanSpec
}

// NewQuery starts a plan over the records at path.
func NewQuery(path string) *Query {
	return &Query{spec: PlanSpec{Path: path}}
}

// Filter sets σ: a boolean expression records must satisfy, applied
// below sampling (filter-then-sample).
func (q *Query) Filter(expr string) *Query {
	q.spec.Filter = expr
	return q
}

// Derive sets π: a numeric expression producing the analyzed value in
// place of the record's own (evaluated on the raw record).
func (q *Query) Derive(expr string) *Query {
	q.spec.Derive = expr
	return q
}

// GroupBy sets γ: "key" for the record's own key, or a numeric
// expression whose (canonically rendered) value labels each group.
func (q *Query) GroupBy(expr string) *Query {
	q.spec.GroupBy = expr
	return q
}

// Stats names the statistics to compute (jobs.ByName spellings: mean,
// sum, count, median, variance, stddev, proportion, pNN, q0.NN).
// Several statistics share ONE sampling pass; default is mean.
func (q *Query) Stats(names ...string) *Query {
	q.spec.Stats = append([]string(nil), names...)
	return q
}

// Spec returns the accumulated plan spec (not yet normalized) — what
// Run and Watch hand to the engine, and what serializes onto earld's
// wire format verbatim.
func (q *Query) Spec() PlanSpec { return q.spec }

// Run executes the plan on c. Spec knobs left unset (σ, sampler, seed,
// parallelism) inherit from opts.
func (q *Query) Run(c *Cluster, opts Options) (*PlanResult, error) {
	return c.RunPlan(q.spec, opts)
}

// Watch executes the plan once and keeps it maintainable under appended
// data, exactly like Watch/WatchMulti/WatchGrouped for library jobs.
func (q *Query) Watch(c *Cluster, opts Options) (*Watch, error) {
	return c.WatchPlan(q.spec, opts)
}

// RunPlan executes a plan spec end to end (σ/π/γ pushed into the
// sampling sources; degenerate specs are bit-identical to the same
// statistics run through Run/RunMulti/RunGrouped).
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
	return c.watch(pq)
}
