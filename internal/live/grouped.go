package live

import (
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/plan"
)

// GroupedQuery is a maintained per-key EARL query: every group's
// delta-maintained resample set stays alive after the first answer, and
// Refresh folds in only appended data — including groups that appear
// for the first time in the appended region, which are opened with the
// same key-derived seed the initial run would have used. It is the
// grouped face of the shared refresh core in watchBase: the same draw
// and expansion machinery as Query, with a sink that routes records by
// key into per-group resample sets.
type GroupedQuery struct {
	watchBase
	job    jobs.Numeric
	route  core.Route
	b      int
	maints map[string]*delta.Maintainer

	last      core.GroupedReport
	baseIters int // growth generations of the initial run

	// Refresh-fold scratch (guarded by mu): the per-key value buffers and
	// the sorted-key slice are reused across folds so a long-lived
	// grouped watch does not re-allocate its routing state every refresh.
	groupScratch map[string][]float64
	keyScratch   []string
}

// WatchGrouped runs the grouped early workflow once and returns a
// maintained handle over its per-group state.
func WatchGrouped(env *core.Env, job jobs.Numeric, route core.Route, path string, opts core.Options) (*GroupedQuery, error) {
	return watchGrouped(env, job, route, path, opts, nil)
}

// watchGrouped is the shared grouped watch constructor; a non-nil prog
// is a compiled query plan whose γ labels the groups (the route is then
// unused — records decode under the plan's input format). prog nil is
// the legacy path, bit-identical to the historical WatchGrouped.
func watchGrouped(env *core.Env, job jobs.Numeric, route core.Route, path string, opts core.Options, prog *plan.Program) (*GroupedQuery, error) {
	// Pin the creation run to one commit point, exactly like the scalar
	// watch constructor; the recorded write generation is the rewrite
	// detector for later refreshes.
	snap := env.FS.Snapshot()
	defer snap.Release()
	penv := env.WithData(snap)
	rep, st, err := core.RunGroupedLive(penv, job, route, path, opts, prog)
	if err != nil {
		return nil, err
	}
	ver, err := snap.Version(path)
	if err != nil {
		return nil, err
	}
	dec, err := core.GroupedDecode(route, prog)
	if err != nil {
		return nil, err
	}
	q := &GroupedQuery{
		watchBase: watchBase{
			env:      env,
			path:     path,
			opts:     st.Opts,
			origOpts: opts,
			decode:   dec,
			prog:     prog,
			sources:  st.Sources,
			dry:      make([]bool, len(st.Sources)),
			estTotal: st.EstTotal,
			synced:   st.SyncedBytes,
			version:  ver,
		},
		job:       job,
		route:     route,
		b:         st.B,
		maints:    st.Maints,
		last:      rep,
		baseIters: rep.Iterations,
	}
	core.RepinSources(q.sources, env.FS)
	return q, nil
}

// Report returns the most recent grouped result without doing any work.
func (q *GroupedQuery) Report() core.GroupedReport {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.last
}

// Refreshes returns how many Refresh calls have been applied.
func (q *GroupedQuery) Refreshes() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.refreshGen
}

// SampleSize returns the records currently held across every group's
// maintained sample.
func (q *GroupedQuery) SampleSize() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int((*groupFold)(q).size())
}

// Close releases the handle; Refresh returns ErrClosed afterwards.
func (q *GroupedQuery) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closeBase()
}

// Refresh brings every group up to date with the watched file,
// processing only data appended since the last sync, then re-expands
// (over the whole file, without replacement) while the worst group's
// error violates σ.
func (q *GroupedQuery) Refresh() (core.GroupedReport, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	snap := q.env.FS.Snapshot()
	defer snap.Release()
	size, appended, rewritten, err := q.beginRefresh(snap)
	if err != nil {
		return core.GroupedReport{}, err
	}
	if rewritten {
		if err := q.rebuild(snap); err != nil {
			return core.GroupedReport{}, err
		}
		return q.last, nil
	}
	if !appended {
		return q.last, nil
	}
	if err := q.refreshSampled(q.env.WithData(snap), size, (*groupFold)(q)); err != nil {
		return core.GroupedReport{}, err
	}
	rep, err := core.GroupedReportFrom(q.job, q.opts, q.maints)
	if err != nil {
		return core.GroupedReport{}, err
	}
	rep.Iterations = q.baseIters + q.refreshGen
	q.last = rep
	return rep, nil
}

// rebuild re-runs the grouped watch's creation against the pinned
// snapshot after a rewrite of the watched path, replacing every group's
// maintained state — identical inputs to a fresh WatchGrouped over the
// rewritten file, so identical reports.
func (q *GroupedQuery) rebuild(snap *dfs.Snapshot) error {
	penv := q.env.WithData(snap)
	rep, st, err := core.RunGroupedLive(penv, q.job, q.route, q.path, q.origOpts, q.prog)
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
	q.b = st.B
	q.maints = st.Maints
	q.last = rep
	q.baseIters = rep.Iterations
	q.groupScratch, q.keyScratch = nil, nil
	core.RepinSources(q.sources, q.env.FS)
	return nil
}
