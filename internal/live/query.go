package live

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/plan"
	"repro/internal/pool"
)

// Query is a maintained EARL query over one or more statistics that
// share a single maintained sample. All methods are safe for concurrent
// use; Refresh calls are serialised.
type Query struct {
	watchBase
	jobs    []jobs.Numeric
	stats   []core.StatState // one per statistic; Maint nil on the exact path
	scratch pool.Floats      // refresh-fold parse buffer (guarded by mu)
	selSE   float64          // subpopulation-size uncertainty carried into every report (plan watches)

	// exact-maintenance path (tiny data / SSABE said sampling won't pay)
	exactStates []mr.State // one incremental reduce state per statistic
	exactN      int64

	generations int
	last        []core.Report // aligned with jobs
}

// WatchMulti runs a shared-pass query over one or more statistics once
// (exactly like core.RunMulti: one pilot, one sample, one pass) and
// returns a handle that keeps every statistic's resample set
// maintainable under appended data. The statistics share the maintained
// sample, so a refresh costs one delta scan regardless of how many
// statistics ride the watch.
func WatchMulti(env *core.Env, jset []jobs.Numeric, path string, opts core.Options) (*Query, error) {
	return watchMulti(env, jset, path, opts, nil)
}

// watchMulti is the shared scalar watch constructor; a non-nil prog is
// a compiled query plan pushed into the run and every later refresh
// (opts must then already carry the spec's knobs — see
// core.PreparePlan). prog nil is the legacy path, bit-identical to the
// historical WatchMulti.
func watchMulti(env *core.Env, jset []jobs.Numeric, path string, opts core.Options, prog *plan.Program) (*Query, error) {
	// The creation run reads through a pinned snapshot: a rewrite (or
	// append) landing mid-run cannot give the watch a blended view. The
	// recorded write generation is what later refreshes compare against
	// to detect rewrites.
	snap := env.FS.Snapshot()
	defer snap.Release()
	penv := env.WithData(snap)
	// deferExact skips the exact MR jobs on the fall-back path: the
	// incremental scan below produces the same answers in one pass and
	// leaves a maintainable state behind.
	reps, st, err := core.RunScalarLive(penv, jset, path, opts, prog, true)
	if err != nil {
		return nil, err
	}
	ver, err := snap.Version(path)
	if err != nil {
		return nil, err
	}
	q := &Query{
		watchBase: watchBase{
			env:      env,
			path:     path,
			opts:     st.Opts,
			origOpts: opts,
			decode:   core.ScalarDecode(jset[0], prog),
			prog:     prog,
			sources:  st.Sources,
			dry:      make([]bool, len(st.Sources)),
			estTotal: st.EstTotal,
			synced:   st.SyncedBytes,
			version:  ver,
		},
		jobs:        jset,
		stats:       st.Stats,
		selSE:       st.SelSE,
		generations: st.Generations,
		last:        reps,
	}
	if q.stats[0].Maint == nil {
		// Exact fallback: one scan builds every statistic's incremental
		// exact state; every refresh after reads only appended splits.
		splits, err := snap.Splits(path, q.opts.SplitSize)
		if err != nil {
			return nil, err
		}
		if err := q.foldExact(snap, splits); err != nil {
			return nil, err
		}
		q.estTotal = q.exactN
		q.last = q.exactReports()
	}
	// The snapshot dies with this constructor; later draws read live.
	core.RepinSources(q.sources, env.FS)
	return q, nil
}

// Report returns the most recent result (the first statistic's, for
// multi-statistic watches) without doing any work.
func (q *Query) Report() core.Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.last[0]
}

// Reports returns the most recent per-statistic results, in job order,
// without doing any work.
func (q *Query) Reports() []core.Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]core.Report(nil), q.last...)
}

// Refreshes returns how many Refresh calls have been applied.
func (q *Query) Refreshes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.refreshGen
}

// SampleSize returns the records currently held in the maintained sample
// (the exact record count on the exact-maintenance path).
func (q *Query) SampleSize() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stats[0].Maint == nil {
		return int(q.exactN)
	}
	return q.stats[0].Maint.N()
}

// Close releases the handle. The final reports stay readable; Refresh
// returns ErrClosed.
func (q *Query) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closeBase()
	q.exactStates = nil
}

// Refresh brings the maintained answer up to date with the watched
// file, processing only data appended since the last sync (or Watch),
// and returns the first statistic's report. With nothing appended it
// just returns the current report.
//
// An infrastructure error mid-refresh (e.g. appended blocks with no
// live replica) is returned as-is; the handle's coverage of the file
// may then be incomplete, so after repairing the cluster either retry
// or open a fresh Watch.
func (q *Query) Refresh() (core.Report, error) {
	reps, err := q.RefreshAll()
	if err != nil {
		return core.Report{}, err
	}
	return reps[0], nil
}

// RefreshAll is Refresh returning every statistic's report, in job
// order. The whole refresh — classification, delta scan, expansion —
// reads through one pinned snapshot of the DFS, so concurrent ingest
// (or a rewrite) can never hand it a blended view: the reports reflect
// either the pre-commit or the post-commit file, exactly. A rewrite of
// the watched path triggers a full rebuild against the snapshot,
// bit-identical to a fresh watch opened over the rewritten contents.
func (q *Query) RefreshAll() ([]core.Report, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	snap := q.env.FS.Snapshot()
	defer snap.Release()
	size, appended, rewritten, err := q.beginRefresh(snap)
	if err != nil {
		return nil, err
	}
	if rewritten {
		if err := q.rebuild(snap); err != nil {
			return nil, err
		}
		return append([]core.Report(nil), q.last...), nil
	}
	if !appended {
		return append([]core.Report(nil), q.last...), nil
	}
	if q.stats[0].Maint == nil {
		return q.refreshExact(snap, size)
	}
	if err := q.refreshSampled(q.env.WithData(snap), size, (*statFold)(q)); err != nil {
		return nil, err
	}
	reps, err := q.buildReports()
	if err != nil {
		return nil, err
	}
	q.last = reps
	return append([]core.Report(nil), reps...), nil
}

// rebuild re-runs the watch's creation against the pinned snapshot —
// the rewrite path: the retained sample describes bytes that no longer
// exist, so the maintained state is replaced wholesale. Run inputs
// (jobs, path, original options, plan, seed) are identical to a fresh
// Watch over the rewritten file, so the rebuilt reports are too.
func (q *Query) rebuild(snap *dfs.Snapshot) error {
	penv := q.env.WithData(snap)
	reps, st, err := core.RunScalarLive(penv, q.jobs, q.path, q.origOpts, q.prog, true)
	if err != nil {
		return err
	}
	ver, err := snap.Version(q.path)
	if err != nil {
		return err
	}
	q.opts = st.Opts
	q.sources = st.Sources
	q.dry = make([]bool, len(st.Sources))
	q.estTotal = st.EstTotal
	q.synced = st.SyncedBytes
	q.version = ver
	q.stats = st.Stats
	q.selSE = st.SelSE
	q.generations = st.Generations
	q.last = reps
	q.exactStates, q.exactN = nil, 0
	if q.stats[0].Maint == nil {
		splits, err := snap.Splits(q.path, q.opts.SplitSize)
		if err != nil {
			return err
		}
		if err := q.foldExact(snap, splits); err != nil {
			return err
		}
		q.estTotal = q.exactN
		q.last = q.exactReports()
	}
	core.RepinSources(q.sources, q.env.FS)
	return nil
}

// buildReports renders the current maintained state as per-statistic
// reports.
func (q *Query) buildReports() ([]core.Report, error) {
	reps := make([]core.Report, len(q.stats))
	for i, st := range q.stats {
		vals, err := st.Maint.Results()
		if err != nil {
			return nil, err
		}
		cv := measureOf(q.opts, st.Maint)
		p := float64(st.Maint.N()) / float64(q.estTotal)
		rep, err := core.FinishReport(q.jobs[i], q.opts, vals, cv, p, q.selSE)
		if err != nil {
			return nil, err
		}
		rep.B = st.Plan.B
		rep.SampleSize = st.Maint.N()
		rep.PlannedN = st.Plan.N
		rep.Iterations = q.generations
		rep.EstTotalN = q.estTotal
		reps[i] = rep
	}
	return reps, nil
}

// ---- Exact maintenance (tiny data / SSABE said sampling won't pay) ----

// foldExact streams every record of the given splits into each
// statistic's incremental reduce state (one scan, shared parse),
// reading through v — the caller's pinned snapshot.
func (q *Query) foldExact(v dfs.View, splits []dfs.Split) error {
	var vals []float64
	for _, sp := range splits {
		rd, err := v.NewLineReader(sp, 0)
		if err != nil {
			return err
		}
		for rd.Next() {
			if q.prog != nil {
				// Plan watches fold only σ's survivors, carrying the
				// derived value — the exact state IS the subpopulation
				// statistic. Every scanned record is charged as read.
				keep, _, v, perr := q.prog.EvalLine(rd.Text())
				if perr != nil {
					return fmt.Errorf("live: parse: %w", perr)
				}
				q.env.Metrics.RecordsRead.Add(1)
				if keep {
					vals = append(vals, v)
				}
				continue
			}
			v, perr := q.jobs[0].Parse(rd.Text())
			if perr != nil {
				return fmt.Errorf("live: parse: %w", perr)
			}
			vals = append(vals, v)
			q.env.Metrics.RecordsRead.Add(1)
		}
		if rd.Err() != nil {
			return rd.Err()
		}
	}
	if q.exactStates == nil {
		q.exactStates = make([]mr.State, len(q.jobs))
	}
	for i, job := range q.jobs {
		st, err := mr.InitializeOrUpdate(job.Reducer, job.Name, q.exactStates[i], vals)
		if err != nil {
			return err
		}
		q.exactStates[i] = st
	}
	q.exactN += int64(len(vals))
	return nil
}

// refreshExact folds only the appended splits into the exact states,
// reading through v — the refresh's pinned snapshot.
func (q *Query) refreshExact(v dfs.View, size int64) ([]core.Report, error) {
	if size > q.synced {
		splits, err := splitsSince(v, q.path, q.opts.SplitSize, q.synced)
		if err != nil {
			return nil, err
		}
		if err := q.foldExact(v, splits); err != nil {
			return nil, err
		}
		q.synced = size
		q.estTotal = q.exactN
	}
	q.last = q.exactReports()
	return append([]core.Report(nil), q.last...), nil
}

// exactReports renders the maintained exact states as Reports (CV 0,
// p = 1 — there is no sampling error to estimate).
func (q *Query) exactReports() []core.Report {
	reps := make([]core.Report, len(q.jobs))
	for i, job := range q.jobs {
		var est float64
		if q.exactStates != nil && q.exactStates[i] != nil {
			if v, err := job.Reducer.Finalize(q.exactStates[i]); err == nil {
				est = v
			}
		}
		reps[i] = core.Report{
			Job:         job.Name,
			Estimate:    est,
			Uncorrected: est,
			CILo:        est,
			CIHi:        est,
			B:           1,
			SampleSize:  int(q.exactN),
			Iterations:  1,
			UsedFull:    true,
			Converged:   true,
			FractionP:   1,
			EstTotalN:   q.exactN,
		}
	}
	return reps
}
