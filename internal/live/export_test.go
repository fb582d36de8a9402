package live

import (
	"repro/internal/core"
	"repro/internal/jobs"
)

// The tests of this package predate the one Watch and were written
// against per-shape constructors and accessors. These shims keep their
// call sites (and so their assertions) as they were: each is the one
// implementation under the old spelling.

func WatchMulti(env *core.Env, jset []jobs.Numeric, path string, opts core.Options) (*Query, error) {
	w, err := Open(env, core.JobQuery(jset, path, opts))
	if err != nil {
		return nil, err
	}
	return &Query{w}, nil
}

func WatchGrouped(env *core.Env, job jobs.Numeric, route core.Route, path string, opts core.Options) (*GroupedQuery, error) {
	w, err := Open(env, core.KeyedJobQuery(job, route, path, opts))
	if err != nil {
		return nil, err
	}
	return &GroupedQuery{w}, nil
}

func (q *Query) Report() core.Report    { return q.Result().Reports[0] }
func (q *Query) Reports() []core.Report { return q.Result().Reports }

func (q *Query) Refresh() (core.Report, error) {
	reps, err := q.RefreshAll()
	if err != nil {
		return core.Report{}, err
	}
	return reps[0], nil
}

func (q *GroupedQuery) Report() core.GroupedReport { return *q.Result().Groups }
