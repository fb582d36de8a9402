package core

import "repro/internal/jobs"

// RunMulti and RunGrouped are the library call shapes the tests in this
// package were written against; both are Execute over a job query.

func RunMulti(env *Env, jset []jobs.Numeric, path string, opts Options) ([]Report, error) {
	res, _, err := Execute(env, JobQuery(jset, path, opts), false)
	if err != nil {
		return nil, err
	}
	return res.Reports, nil
}

func RunGrouped(env *Env, job jobs.Numeric, route Route, path string, opts Options) (GroupedReport, error) {
	res, _, err := Execute(env, KeyedJobQuery(job, route, path, opts), false)
	if err != nil {
		return GroupedReport{}, err
	}
	return *res.Groups, nil
}
