// Package live implements maintained queries over continuously ingested
// data — EARL's delta-maintenance trick (§4.1) lifted from within one
// run to across the lifetime of a dataset.
//
// A watch is the run, kept. Open executes the query once through the one
// driver (core.Execute) and keeps what the run leaves behind, a
// core.Retained: the sink the run folded into (every statistic's, or
// every group's, delta-maintained bootstrap resample set with its
// per-resample sketch states), the SSABE plans, and the per-mapper
// without-replacement samplers. There is ONE watch implementation and it
// knows nothing of how a sample grows: scalar, multi-statistic and
// grouped queries differ only in the sink their run retained, and a
// refresh is the retained state's own (core.Retained.Refresh). When data
// is appended to the watched file (dfs.Append cuts new blocks without
// disturbing existing splits), Refresh samples only the appended splits
// at the query's current sampling fraction, folds that delta into the
// retained sink exactly as the engine folded a round, and re-expands the
// sample only if the σ bound is violated.
//
// A refresh therefore reads o(N) records — proportional to the appended
// delta plus any expansion — never the whole file; the cost is visible
// in simcost counters (Refreshes, RecordsRead, BytesRead) so experiments
// can compare maintained refreshes against from-scratch re-runs.
//
// Queries whose run fell back to the exact path (tiny data, or SSABE's
// B×n ≥ N) are maintained through the same retained sink: it holds one
// incremental reduce state per statistic, made empty when the watch
// opens (Initialize) and grown with every appended record (Update), which
// is still delta-proportional work. The watch itself is the handle: its
// lock, its cost ledger, the query, the classification of a sync point
// as appended to or rewritten, the rebuild after a rewrite, and the
// latest result.
package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/simcost"
)

// ErrClosed is returned by Refresh after Close.
var ErrClosed = errors.New("live: query is closed")

// ErrTruncated is returned when the watched file shrank — maintained
// state can only move forward over appends.
var ErrTruncated = errors.New("live: watched file shrank (appends only)")

// Watch is a maintained EARL query: one statistic or several sharing a
// single maintained sample, or one statistic per group key. All methods
// are safe for concurrent use; Refresh calls are serialised.
type Watch struct {
	mu  sync.Mutex
	env *core.Env
	// ledger is the watch's own cost ledger, a child of env.Metrics: the
	// opening run, every rebuild and every refresh charge it.
	ledger *simcost.Metrics
	// pq is the query as it was opened, options before any defaulting — a
	// rewrite-triggered rebuild re-executes exactly this, so the rebuilt
	// watch is bit-identical to a fresh watch opened over the rewritten
	// file.
	pq *core.PlannedQuery

	// ret is the opening run's retained state — sink, sources, estimated
	// total, ingest high-water mark — grown in place by every refresh and
	// replaced wholesale by a rebuild.
	ret     *core.Retained
	version int64 // watched file's write generation at the last sync

	refreshGen int
	closed     bool
	last       *core.PlanResult
}

// Open executes pq once (exactly like a one-shot: one pilot, one sample,
// one pass) and returns a handle that keeps the run's state maintainable
// under appended data. The statistics of a scalar query share the
// maintained sample, so a refresh costs one delta scan regardless of how
// many ride the watch; a grouped watch keeps every group's resample set,
// including groups that first appear in appended data.
func Open(env *core.Env, pq *core.PlannedQuery) (*Watch, error) {
	w := &Watch{env: env, ledger: env.Metrics.Child(), pq: pq}
	// The opening run reads one pinned commit: a rewrite (or append)
	// landing mid-run cannot give the watch a blended view.
	run, release := env.Open(w.ledger)
	defer release()
	if err := w.rebuild(run); err != nil {
		return nil, err
	}
	return w, nil
}

// rebuild executes the query as run and replaces the maintained state
// wholesale — the opening run, and again after a rewrite of the watched
// path, when the retained sample describes bytes that no longer exist.
// Both run the same query with the same options, so a rebuilt watch
// reports what a fresh one over the rewritten file would. The recorded
// write generation is what later refreshes compare against to detect
// rewrites.
func (w *Watch) rebuild(run *core.Env) error {
	res, ret, err := core.Execute(run, w.pq, true)
	if err != nil {
		return err
	}
	ver, err := run.View().Version(w.pq.Spec.Path)
	if err != nil {
		return err
	}
	if w.ret != nil {
		w.ret.Release() // the rewritten file's sample is dead
	}
	w.ret, w.version, w.last = ret, ver, res
	return nil
}

// Result returns the most recent result without doing any work.
func (w *Watch) Result() *core.PlanResult {
	w.mu.Lock()
	defer w.mu.Unlock()
	return clone(w.last)
}

// clone copies a result far enough that the caller cannot reach the
// watch's own.
func clone(res *core.PlanResult) *core.PlanResult {
	out := &core.PlanResult{Reports: append([]core.Report(nil), res.Reports...)}
	if res.Groups != nil {
		g := *res.Groups
		out.Groups = &g
	}
	return out
}

// Grouped reports whether the watch maintains a grouped query.
func (w *Watch) Grouped() bool { return w.pq.Grouped() }

// Refreshes returns how many Refresh calls have been applied.
func (w *Watch) Refreshes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.refreshGen
}

// SampleSize returns the records currently held in the maintained sample
// (across every group, for a grouped watch; the exact record count on the
// exact-maintenance path).
func (w *Watch) SampleSize() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.ret.Size())
}

// Cost returns what the watch has charged — its opening run, every
// refresh and rebuild since — exactly, whatever else the cluster runs.
func (w *Watch) Cost() simcost.Snapshot { return w.ledger.Snapshot() }

// Close releases the retained samplers. The final result stays
// readable; Refresh returns ErrClosed.
func (w *Watch) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.ret.Release()
}

// Refresh brings the maintained answer up to date with the watched
// file, processing only data appended since the last sync (or Open):
// the retained state grows over the appended region
// (core.Retained.Refresh). With nothing appended it just returns the
// current result.
//
// The whole refresh — classification, delta scan, expansion — reads
// through one pinned snapshot of the DFS, so concurrent ingest (or a
// rewrite) can never hand it a blended view: the result reflects either
// the pre-commit or the post-commit file, exactly. A rewrite of the
// watched path triggers a full rebuild against the snapshot,
// bit-identical to a fresh watch opened over the rewritten contents.
//
// An infrastructure error mid-refresh (e.g. appended blocks with no
// live replica) is returned as-is; the handle's coverage of the file
// may then be incomplete, so after repairing the cluster either retry
// or open a fresh watch.
func (w *Watch) Refresh() (*core.PlanResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	run, release := w.env.Open(w.ledger)
	defer release()
	size, appended, rewritten, err := w.beginRefresh(run.View())
	switch {
	case err != nil:
	case rewritten:
		err = w.rebuild(run)
	case appended:
		var res *core.PlanResult
		if res, err = w.ret.Refresh(run, size, w.refreshGen); err == nil {
			w.last = res
		}
	}
	if err != nil {
		return nil, err
	}
	return clone(w.last), nil
}

// beginRefresh classifies the watched file against the sync point, all
// through one pinned view so the verdict and the refresh that follows
// describe the same commit:
//
//   - rewritten=true: the file's write generation changed (WriteFile
//     replaced it under the watch) — the retained sample and sync point
//     describe bytes that no longer exist, so the caller must rebuild
//     from scratch against the same view;
//   - appended=false: nothing to do (the no-op contract: an unconverged
//     answer is only re-expanded when new data arrives; refreshing in
//     place must not silently re-read the file);
//   - otherwise data was appended: the refresh is counted and the
//     refresh generation advances.
func (w *Watch) beginRefresh(v dfs.View) (size int64, appended, rewritten bool, err error) {
	if w.closed {
		return 0, false, false, ErrClosed
	}
	path := w.pq.Spec.Path
	ver, err := v.Version(path)
	if err != nil {
		return 0, false, false, err
	}
	if ver != w.version {
		w.refreshGen++
		return 0, false, true, nil
	}
	size, err = v.Stat(path)
	if err != nil {
		return 0, false, false, err
	}
	if size < w.ret.SyncedBytes() {
		// Unreachable while versions are per-WriteFile (a same-version
		// file only grows), kept as a tripwire.
		return 0, false, false, fmt.Errorf("%w: %s", ErrTruncated, path)
	}
	if size == w.ret.SyncedBytes() {
		return size, false, false, nil
	}
	w.ledger.Charge(simcost.Snapshot{Refreshes: 1})
	w.refreshGen++
	return size, true, false, nil
}
