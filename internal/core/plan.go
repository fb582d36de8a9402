package core

import (
	"repro/internal/jobs"
	"repro/internal/plan"
)

// This file is the driver's front door for the query-plan layer
// (internal/plan): it binds a plan.Spec to run Options, compiles the
// σ/π/γ program, and dispatches onto the scalar or grouped driver with
// the program pushed into the sampling sources. Every front end —
// the public earl builder, earlctl, earld — funnels through PreparePlan,
// so normalization, defaulting and compilation cannot drift between
// them.

// PlannedQuery is a normalized, compiled plan bound to its run options.
type PlannedQuery struct {
	Spec plan.Spec     // normalized (canonical expressions, resolved stats)
	Prog *plan.Program // nil for degenerate plans (legacy path, bit-identical)
	Jobs []jobs.Numeric
	Opts Options // spec knobs folded in
}

// Grouped reports whether the plan routes per-group (γ present).
func (pq *PlannedQuery) Grouped() bool { return pq.Spec.GroupBy != "" }

// PreparePlan normalizes and compiles spec against opts. Spec fields
// left at their zero value inherit from opts (so a builder user can
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
	if spec.Parallelism == 0 {
		spec.Parallelism = opts.Parallelism
	}
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	opts.Sigma = spec.Sigma
	opts.Sampler = SamplerKind(spec.Sampler)
	opts.Seed = spec.Seed
	opts.Parallelism = spec.Parallelism
	jset, err := spec.JobSet()
	if err != nil {
		return nil, err
	}
	prog, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return &PlannedQuery{Spec: spec, Prog: prog, Jobs: jset, Opts: opts}, nil
}

// PlanResult is RunPlan's outcome: per-statistic reports for scalar
// plans, or the per-group report when the plan groups.
type PlanResult struct {
	Reports []Report       `json:"reports,omitempty"`
	Groups  *GroupedReport `json:"groups,omitempty"`
}

// RunPlan executes one plan end to end: normalize, compile, and run on
// the sampled driver with the program pushed into the sources.
// Degenerate plans (no σ/π, group-by "" or "key") compile to a nil
// program and are bit-identical to Run/RunMulti/RunGrouped — a
// degenerate grouped plan runs the tab route.
func RunPlan(env *Env, spec plan.Spec, opts Options) (*PlanResult, error) {
	pq, err := PreparePlan(spec, opts)
	if err != nil {
		return nil, err
	}
	if pq.Grouped() {
		rep, _, err := RunGroupedLive(env, pq.Jobs[0], TabRoute(), pq.Spec.Path, pq.Opts, pq.Prog)
		if err != nil {
			return nil, err
		}
		return &PlanResult{Groups: &rep}, nil
	}
	reps, _, err := RunScalarLive(env, pq.Jobs, pq.Spec.Path, pq.Opts, pq.Prog, false)
	if err != nil {
		return nil, err
	}
	return &PlanResult{Reports: reps}, nil
}
