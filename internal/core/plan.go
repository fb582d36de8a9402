package core

import (
	"repro/internal/jobs"
	"repro/internal/plan"
)

// This file is the driver's front door: PlannedQuery is the one carrier
// of a query — a plan.Spec bound to run Options with its σ/π/γ program
// compiled, or a library job set handed over by value — and every front
// end (the public earl package, earlctl, earld) funnels through
// PreparePlan and Execute, so normalization, defaulting and compilation
// cannot drift between them.

// PlannedQuery is a query ready to execute: what to compute (Jobs), over
// which records (Spec.Path, decoded as decode says), through which
// compiled plan (Prog), under which options.
type PlannedQuery struct {
	Spec plan.Spec     // normalized (canonical expressions, resolved stats)
	Prog *plan.Program // nil for degenerate plans and library jobs
	Jobs []jobs.Numeric
	Opts Options // spec knobs folded in; not yet defaulted
	// Route is how a grouped query without a Prog decodes its records:
	// TabRoute for a degenerate "by key" plan, or a library caller's own
	// ParseKV.
	Route Route
}

// Grouped reports whether the query routes per-group (γ present).
func (pq *PlannedQuery) Grouped() bool { return pq.Spec.GroupBy != "" }

// decode resolves how the query's samplers parse records — a pure
// function of the query, so a rebuild derives the one the opening run
// did (a kept run's refreshes carry the run's).
func (pq *PlannedQuery) decode() (decode, error) {
	if pq.Grouped() {
		return groupedDecode(pq.Route, pq.Prog)
	}
	return scalarDecode(pq.Jobs[0], pq.Prog), nil
}

// JobQuery carries library statistics (job values, possibly with their
// own Parse) over path as one shared-pass scalar query.
func JobQuery(jset []jobs.Numeric, path string, opts Options) *PlannedQuery {
	return &PlannedQuery{Spec: plan.Spec{Path: path}, Jobs: jset, Opts: opts}
}

// KeyedJobQuery carries a library statistic computed per group key, the
// records decoded as route says.
func KeyedJobQuery(job jobs.Numeric, route Route, path string, opts Options) *PlannedQuery {
	return &PlannedQuery{Spec: plan.Spec{Path: path, GroupBy: "key"}, Jobs: []jobs.Numeric{job}, Opts: opts, Route: route}
}

// PreparePlan normalizes and compiles spec against opts. Spec fields
// left at their zero value inherit from opts (so a library caller can
// keep tuning knobs in Options); set spec fields win and are copied
// back into the returned Opts, keeping the two views consistent.
func PreparePlan(spec plan.Spec, opts Options) (*PlannedQuery, error) {
	if spec.Sigma == 0 {
		spec.Sigma = opts.Sigma
	}
	if spec.Sampler == "" {
		spec.Sampler = string(opts.Sampler)
	}
	if spec.Seed == 0 {
		spec.Seed = opts.Seed
	}
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	opts.Sigma = spec.Sigma
	opts.Sampler = SamplerKind(spec.Sampler)
	opts.Seed = spec.Seed
	jset, err := spec.JobSet()
	if err != nil {
		return nil, err
	}
	prog, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return &PlannedQuery{Spec: spec, Prog: prog, Jobs: jset, Opts: opts, Route: TabRoute()}, nil
}

// PlanResult is a query's outcome: per-statistic reports for scalar
// queries, or the per-group report when the query groups.
type PlanResult struct {
	Reports []Report       `json:"reports,omitempty"`
	Groups  *GroupedReport `json:"groups,omitempty"`
}

// RunPlan executes one plan end to end: normalize, compile, and run on
// the sampled driver with the program pushed into the sources.
// Degenerate plans (no σ/π, group-by "" or "key") compile to a nil
// program and are bit-identical to the same statistics run as library
// jobs — a degenerate grouped plan runs the tab route.
func RunPlan(env *Env, spec plan.Spec, opts Options) (*PlanResult, error) {
	pq, err := PreparePlan(spec, opts)
	if err != nil {
		return nil, err
	}
	res, _, err := Execute(env, pq, false)
	return res, err
}

// Run executes one library statistic over the line-encoded numeric file
// at path with early approximate results per the paper's full workflow —
// the call shape of the figures.
func Run(env *Env, job jobs.Numeric, path string, opts Options) (Report, error) {
	res, _, err := Execute(env, JobQuery([]jobs.Numeric{job}, path, opts), false)
	if err != nil {
		return Report{}, err
	}
	return res.Reports[0], nil
}
