package live

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
)

// Exact maintenance: a watch whose run fell back to the exact path (tiny
// data, or SSABE said sampling won't pay) retains no sink; it keeps one
// incremental reduce state per statistic and grows each with every
// appended record instead.

// foldExact streams every record of the given splits into each
// statistic's incremental reduce state (one scan, shared parse), reading
// through v — the caller's pinned snapshot — and renders the result.
func (w *Watch) foldExact(v dfs.View, splits []dfs.Split) error {
	jset, prog := w.pq.Jobs, w.pq.Prog
	var vals []float64
	for _, sp := range splits {
		rd, err := v.NewLineReader(sp, 0)
		if err != nil {
			return err
		}
		for rd.Next() {
			if prog != nil {
				// Plan watches fold only σ's survivors, carrying the
				// derived value — the exact state IS the subpopulation
				// statistic. Every scanned record is charged as read.
				keep, _, v, perr := prog.EvalLine(rd.Text())
				if perr != nil {
					return fmt.Errorf("live: parse: %w", perr)
				}
				w.env.Metrics.RecordsRead.Add(1)
				if keep {
					vals = append(vals, v)
				}
				continue
			}
			v, perr := jset[0].Parse(rd.Text())
			if perr != nil {
				return fmt.Errorf("live: parse: %w", perr)
			}
			vals = append(vals, v)
			w.env.Metrics.RecordsRead.Add(1)
		}
		if rd.Err() != nil {
			return rd.Err()
		}
	}
	if w.exactStates == nil {
		w.exactStates = make([]mr.State, len(jset))
	}
	for i, job := range jset {
		st, err := mr.InitializeOrUpdate(job.Reducer, job.Name, w.exactStates[i], vals)
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
// reading through v — the refresh's pinned snapshot.
func (w *Watch) refreshExact(v dfs.View, size int64) error {
	splits, err := splitsSince(v, w.pq.Spec.Path, w.ret.SyncedBytes)
	if err != nil {
		return err
	}
	if err := w.foldExact(v, splits); err != nil {
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
