package live

import (
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
)

// Exact maintenance: a watch whose run fell back to the exact path (tiny
// data, or SSABE said sampling won't pay) retains no sink; it keeps one
// incremental reduce state per statistic, made empty when the watch
// opens or rebuilds, and grows each with every appended record
// (Update) instead. The records come from the one-shot's column
// scan (core.ScanExact): resident blocks where env.Scan holds them, a
// LineReader per split otherwise, σ/π through the plan's kernels, and
// the watch's own decode — so a record the sampled path would reject
// fails the fold too.

// openExact starts exact maintenance as run, the opening run or a
// rebuild: one empty state per statistic, folded over every split of
// the watched file.
func (w *Watch) openExact(run *core.Env) error {
	splits, err := run.View().Splits(w.pq.Spec.Path, 0)
	if err != nil {
		return err
	}
	w.exactStates = make([]mr.State, len(w.pq.Jobs))
	for i, job := range w.pq.Jobs {
		if w.exactStates[i], err = job.Reducer.Initialize(job.Name); err != nil {
			return err
		}
	}
	return w.foldExact(run, splits)
}

// foldExact scans the given splits once as run — the opening run, or a
// refresh — folds the survivors into each statistic's incremental
// reduce state and renders the result.
func (w *Watch) foldExact(run *core.Env, splits []dfs.Split) error {
	vals, err := core.ScanExact(run, w.pq.Spec.Path, splits, w.decode, w.pq.Prog)
	if err != nil {
		return err
	}
	for i, job := range w.pq.Jobs {
		// The same state grows refresh after refresh.
		if w.exactStates[i], err = job.Reducer.Update(w.exactStates[i], vals); err != nil {
			return err
		}
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
		// A statistic with no value over no record (a quantile) reads 0.
		var est float64
		if v, err := job.Reducer.Finalize(w.exactStates[i]); err == nil {
			est = v
		}
		reps[i] = core.ExactReport(job.Name, est, int(w.exactN))
		reps[i].EstTotalN = w.exactN
	}
	return &core.PlanResult{Reports: reps}
}
