package live

import (
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
)

// Exact maintenance: a watch whose run fell back to the exact path (tiny
// data, or SSABE said sampling won't pay) retains no sink; it keeps one
// incremental reduce state per statistic and grows each with every
// appended record instead. The records come from the one-shot's column
// scan (core.ScanExact): resident blocks where env.Scan holds them, a
// LineReader per split otherwise, σ/π through the plan's kernels, and
// the watch's own decode — so a record the sampled path would reject
// fails the fold too.

// foldExact scans the given splits once as run — the opening run, or a
// refresh — folds the survivors into each statistic's incremental
// reduce state and renders the result.
func (w *Watch) foldExact(run *core.Env, splits []dfs.Split) error {
	jset := w.pq.Jobs
	vals, err := core.ScanExact(run, w.pq.Spec.Path, splits, w.decode, w.pq.Prog)
	if err != nil {
		return err
	}
	if w.exactStates == nil {
		w.exactStates = make([]mr.State, len(jset))
	}
	for i, job := range jset {
		// The same state grows refresh after refresh; a nil one with
		// nothing to fold stays nil, as there is nothing to summarise.
		st, err := w.exactStates[i], error(nil)
		switch {
		case st != nil:
			st, err = job.Reducer.Update(st, vals)
		case len(vals) > 0:
			st, err = job.Reducer.Initialize(job.Name, vals)
		}
		if err != nil {
			return err
		}
		w.exactStates[i] = st
	}
	w.exactN += int64(len(vals))
	w.ret.EstTotal = w.exactN
	w.last = w.exactResult()
	return nil
}

// refreshExact folds only the appended splits into the exact states,
// as run, the refresh.
func (w *Watch) refreshExact(run *core.Env, size int64) error {
	splits, err := splitsSince(run.View(), w.pq.Spec.Path, w.ret.SyncedBytes)
	if err != nil {
		return err
	}
	if err := w.foldExact(run, splits); err != nil {
		return err
	}
	w.ret.SyncedBytes = size
	return nil
}

// exactResult renders the maintained exact states as Reports.
func (w *Watch) exactResult() *core.PlanResult {
	reps := make([]core.Report, len(w.pq.Jobs))
	for i, job := range w.pq.Jobs {
		var est float64
		if w.exactStates[i] != nil {
			if v, err := job.Reducer.Finalize(w.exactStates[i]); err == nil {
				est = v
			}
		}
		reps[i] = core.ExactReport(job.Name, est, int(w.exactN))
		reps[i].EstTotalN = w.exactN
	}
	return &core.PlanResult{Reports: reps}
}
