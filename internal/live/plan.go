package live

import (
	"repro/internal/core"
	"repro/internal/plan"
)

// Query and GroupedQuery are a Watch under the two typed faces the
// benchmark module names (bench/traced.go); they add no logic. New code
// holds a *Watch.

// Query is a scalar Watch.
type Query struct{ *Watch }

// RefreshAll is Refresh returning every statistic's report, in job
// order.
func (q *Query) RefreshAll() ([]core.Report, error) {
	res, err := q.Watch.Refresh()
	if err != nil {
		return nil, err
	}
	return res.Reports, nil
}

// GroupedQuery is a grouped Watch.
type GroupedQuery struct{ *Watch }

// Refresh is Watch.Refresh returning the grouped report.
func (q *GroupedQuery) Refresh() (core.GroupedReport, error) {
	res, err := q.Watch.Refresh()
	if err != nil {
		return core.GroupedReport{}, err
	}
	return *res.Groups, nil
}

// WatchPlan opens a maintained query from a plan.Spec — normalized and
// compiled once (core.PreparePlan), the σ/π/γ program pushed into the
// opening run's sampling sources and every refresh's new streams — and
// returns it under the face matching the plan's shape: a *Query for
// scalar plans, a *GroupedQuery when the plan groups.
func WatchPlan(env *core.Env, spec plan.Spec, opts core.Options) (*Query, *GroupedQuery, error) {
	pq, err := core.PreparePlan(spec, opts)
	if err != nil {
		return nil, nil, err
	}
	w, err := Open(env, pq)
	if err != nil {
		return nil, nil, err
	}
	if w.Grouped() {
		return nil, &GroupedQuery{w}, nil
	}
	return &Query{w}, nil, nil
}
