// Package live implements maintained queries over continuously ingested
// data — EARL's delta-maintenance trick (§4.1) lifted from within one
// run to across the lifetime of a dataset.
//
// A watch is the run, kept. Open executes the query once through the one
// sampled driver (core.Execute) and keeps what the run leaves behind —
// the sink the engine folded into (every statistic's, or every group's,
// delta-maintained bootstrap resample set with its per-resample sketch
// states), the SSABE plans, and the per-mapper without-replacement
// samplers. There is ONE watch implementation: it is written against
// core.Sink alone, so scalar, multi-statistic and grouped queries differ
// only in the sink their run retained. When data is appended to the
// watched file (dfs.Append cuts new blocks without disturbing existing
// splits), Refresh:
//
//  1. samples only the appended splits at the query's current sampling
//     fraction p, so the combined sample stays (approximately) uniform
//     over the concatenated data;
//  2. folds that delta into the retained sink exactly as the engine
//     folded a round — sharded across Options.Parallelism workers under
//     the engine-wide fixed-seed determinism contract;
//  3. re-estimates the error, and re-expands the sample (drawing from
//     old and new regions alike, still without replacement) only if the
//     σ bound is violated.
//
// A refresh therefore reads o(N) records — proportional to the appended
// delta plus any expansion — never the whole file; the cost is visible
// in simcost counters (Refreshes, RecordsRead, BytesRead) so experiments
// can compare maintained refreshes against from-scratch re-runs.
//
// Queries whose run fell back to the exact path (tiny data, or SSABE's
// B×n ≥ N) retain no sink and are maintained exactly instead: the user
// jobs' incremental reduce states start empty when the watch opens
// (Initialize) and are grown with every appended record (Update), which
// is still delta-proportional work (exact.go).
package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sampling"
	"repro/internal/simcost"
)

// ErrClosed is returned by Refresh after Close.
var ErrClosed = errors.New("live: query is closed")

// ErrTruncated is returned when the watched file shrank — maintained
// state can only move forward over appends.
var ErrTruncated = errors.New("live: watched file shrank (appends only)")

// refreshSalt spaces the seed ranges of sampler streams created for
// successive ingest generations, so a refresh's new samplers never share
// a stream with the initial run's or an earlier refresh's.
const refreshSalt = 0x51_7cc1b7_2722_0a95

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
	// decode is how the watched records are parsed, derived once from the
	// query — so it holds whichever path the opening run or a rebuild
	// takes, and every refresh's new sampler streams are built on it.
	decode core.Decode

	// ret is the opening run's retained state — sink, sources, estimated
	// total, ingest high-water mark — advanced in place by every refresh
	// and replaced wholesale by a rebuild.
	ret     *core.Retained
	dry     []bool // aligned with ret.Sources
	version int64  // watched file's write generation at the last sync

	// exact-maintenance path (ret.Sink == nil): one incremental reduce
	// state per statistic.
	exactStates []mr.State
	exactN      int64

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
	dec, err := pq.Decode()
	if err != nil {
		return nil, err
	}
	w := &Watch{env: env, ledger: env.Metrics.Child(), pq: pq, decode: dec}
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
		core.ReleaseSources(w.ret.Sources) // the rewritten file's sample is dead
	}
	w.ret, w.dry, w.version, w.last = ret, make([]bool, len(ret.Sources)), ver, res
	w.exactStates, w.exactN = nil, 0
	if ret.Sink == nil {
		// Exact fall-back: Execute skipped the exact job, because one scan
		// here produces the same answers and leaves a maintainable state
		// behind; every refresh after reads only appended splits.
		return w.openExact(run)
	}
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
	if w.ret.Sink == nil {
		return int(w.exactN)
	}
	return int(w.ret.Sink.Size())
}

// Cost returns what the watch has charged — its opening run, every
// refresh and rebuild since — exactly, whatever else the cluster runs.
func (w *Watch) Cost() simcost.Snapshot { return w.ledger.Snapshot() }

// Close releases the retained samplers and exact states. The final
// result stays readable; Refresh returns ErrClosed.
func (w *Watch) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	core.ReleaseSources(w.ret.Sources)
	w.ret.Sources, w.dry, w.exactStates = nil, nil, nil
}

// Refresh brings the maintained answer up to date with the watched
// file, processing only data appended since the last sync (or Open):
// the appended region is sampled at the current fraction, then the
// sample re-expands (over the whole file, without replacement) while the
// worst error violates σ. With nothing appended it just returns the
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
	case !appended:
	case w.ret.Sink == nil:
		err = w.refreshExact(run, size)
	default:
		if err = w.refreshSampled(run, size); err == nil {
			var res *core.PlanResult
			if res, err = w.ret.Result(w.refreshGen); err == nil {
				w.last = res
			}
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
	if size < w.ret.SyncedBytes {
		// Unreachable while versions are per-WriteFile (a same-version
		// file only grows), kept as a tripwire.
		return 0, false, false, fmt.Errorf("%w: %s", ErrTruncated, path)
	}
	if size == w.ret.SyncedBytes {
		return size, false, false, nil
	}
	w.ledger.Charge(simcost.Snapshot{Refreshes: 1})
	w.refreshGen++
	return size, true, false, nil
}

// refreshSampled is the maintained-sample refresh described in the
// package comment: extend coverage over the appended region at the
// current sampling fraction, then re-expand while the sink's error
// violates σ. run is the refresh: every source — retained and new
// alike — is repinned onto its commit for the duration, so the whole
// refresh reads one commit point even while ingest lands concurrently,
// and repinned back onto the live filesystem when it is done (a
// retained source must not keep a commit alive).
func (w *Watch) refreshSampled(run *core.Env, size int64) error {
	ret, sink := w.ret, w.ret.Sink
	ret.Sources, w.dry = compactSources(ret.Sources, w.dry)
	core.RepinSources(ret.Sources, run.View())
	defer func() { core.RepinSources(ret.Sources, w.env.FS) }()
	if size > ret.SyncedBytes {
		newSources, estNew, err := buildRefreshSources(
			run, w.pq.Spec.Path, ret.Opts, w.decode, w.pq.Prog, ret.SyncedBytes, size, ret.EstTotal, w.refreshGen)
		if err != nil {
			return err
		}
		// Sample the appended region at the query's current fraction so
		// the maintained sample stays uniform over old ∪ new.
		p := float64(sink.Size()) / float64(ret.EstTotal)
		if p > 1 {
			p = 1
		}
		nDelta := int64(p*float64(estNew) + 0.5)
		if nDelta > estNew {
			nDelta = estNew
		}
		from := len(ret.Sources)
		ret.Sources = append(ret.Sources, newSources...)
		w.dry = append(w.dry, make([]bool, len(newSources))...)
		ret.EstTotal += estNew
		ret.SyncedBytes = size
		if nDelta > 0 {
			if _, err := w.drawAndFold(from, len(ret.Sources), int(nDelta), true); err != nil {
				return err
			}
		}
	}

	// Re-estimate, and re-expand only if σ is violated — the doubling
	// schedule the engine applies between rounds, here over the one
	// merged sink, drawing from every region of the file without
	// replacement.
	cv := sink.ErrorEstimate(sink.Size())
	maxSample := int64(core.MaxSampleShare * float64(ret.EstTotal))
	for cv > ret.Opts.Sigma && sink.Size() < maxSample {
		next := sink.Size() * 2
		if next > maxSample {
			next = maxSample
		}
		k := next - sink.Size()
		if k <= 0 {
			break
		}
		n, err := w.drawAndFold(0, len(ret.Sources), int(k), false)
		if err != nil {
			return err
		}
		if n == 0 {
			break // every region exhausted: finish with achieved accuracy
		}
		cv = sink.ErrorEstimate(sink.Size())
	}
	return nil
}

// drawAndFold draws up to total records across sources[from:to] and
// folds them into the sink, returning how many records were drawn.
// foldEmpty preserves the delta branch's behaviour of folding even an
// empty draw (the fold counts a generation); the expansion loop instead
// checks the count first so an exhausted file terminates it.
func (w *Watch) drawAndFold(from, to, total int, foldEmpty bool) (int, error) {
	cols, err := w.drawColsAcross(from, to, total)
	if err != nil {
		return 0, err
	}
	if cols.Len() == 0 && !foldEmpty {
		return 0, nil
	}
	w.ret.Folds++
	return cols.Len(), w.ret.Sink.Fold(cols)
}

// drawColsAcross draws total records from sources[from:to], apportioned
// by source weight and drawn concurrently across Options.Parallelism
// workers. Each source owns a deterministic rng stream and the per-slot
// column batches are concatenated in source order, so the returned
// records are identical at any parallelism. Sources that run dry
// contribute what they have; a second, sequential pass redistributes
// any shortfall to the remaining live sources.
func (w *Watch) drawColsAcross(from, to, total int) (*colscan.Cols, error) {
	type slot struct {
		idx   int
		share int
	}
	var slots []slot
	var weightSum int64
	for i := from; i < to; i++ {
		if w.dry[i] {
			continue
		}
		weight := w.ret.Sources[i].Weight()
		if weight <= 0 {
			continue
		}
		slots = append(slots, slot{idx: i})
		weightSum += weight
	}
	flat := &colscan.Cols{}
	if len(slots) == 0 || weightSum == 0 {
		return flat, nil
	}
	// Largest-remainder apportionment of total across the live sources.
	assigned := 0
	for si := range slots {
		weight := w.ret.Sources[slots[si].idx].Weight()
		slots[si].share = int(int64(total) * weight / weightSum)
		assigned += slots[si].share
	}
	for si := 0; assigned < total; si = (si + 1) % len(slots) {
		slots[si].share++
		assigned++
	}

	out := make([]colscan.Cols, len(slots))
	workers := pool.Workers(w.ret.Opts.Parallelism)
	err := pool.ForEach(len(slots), workers, func(si int) error {
		s := slots[si]
		if s.share == 0 {
			return nil
		}
		dry, err := w.drawOneCols(s.idx, s.share, &out[si])
		if err != nil {
			return err
		}
		if dry {
			w.dry[s.idx] = true // distinct index per worker: no race
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		flat.Keys = append(flat.Keys, out[i].Keys...)
		flat.Vals = append(flat.Vals, out[i].Vals...)
	}
	// Redistribute any dry-source shortfall sequentially (deterministic
	// source order) so expansions still reach their target when possible.
	for si := range slots {
		if flat.Len() >= total {
			break
		}
		if w.dry[slots[si].idx] {
			continue
		}
		dry, err := w.drawOneCols(slots[si].idx, total-flat.Len(), flat)
		if err != nil {
			return nil, err
		}
		if dry {
			w.dry[slots[si].idx] = true
		}
	}
	return flat, nil
}

// drawOneCols draws up to k decoded records from source i into out.
func (w *Watch) drawOneCols(i, k int, out *colscan.Cols) (dry bool, err error) {
	_, err = w.ret.Sources[i].DrawCols(k, out)
	if errors.Is(err, sampling.ErrExhausted) {
		return true, nil
	}
	return false, err
}

// compactSources drops, and releases, permanently-dry sources so a
// long-lived watch does not accumulate one dead shard set per refresh —
// post-map sources in particular pin their undrawn records in memory
// until released. Dry sources contribute nothing to draws, so pruning
// never changes results.
func compactSources(sources []core.RecordSource, dry []bool) ([]core.RecordSource, []bool) {
	outS := make([]core.RecordSource, 0, len(sources))
	outD := make([]bool, 0, len(dry))
	for i, s := range sources {
		if dry[i] {
			s.Release()
			continue
		}
		outS = append(outS, s)
		outD = append(outD, false)
	}
	return outS, outD
}

// splitsSince returns the splits wholly beyond the sync point, read
// through v (the refresh's pinned commit). Splits are segment-aware,
// so the boundary is exact.
func splitsSince(v dfs.View, path string, synced int64) ([]dfs.Split, error) {
	splits, err := v.Splits(path, 0)
	if err != nil {
		return nil, err
	}
	var out []dfs.Split
	for _, sp := range splits {
		if sp.Offset >= synced {
			out = append(out, sp)
		}
	}
	return out, nil
}

// buildRefreshSources constructs the retained sampler streams over the
// region appended since synced (one per mapper shard, refresh-salted
// seeds) and estimates how many records they cover: exact for post-map
// (the pool counted them while scanning), mean-record-length based for
// pre-map — the same §3.3 estimator the initial run uses, with the mean
// taken from the estTotal records known to span the synced bytes.
// Shared by the single/multi-statistic and grouped maintained queries.
//
// A non-nil prog pushes the plan into the new streams, so refresh draws
// deliver post-filter transformed records and every estimate stays
// denominated in the effective subpopulation: post-map weights count
// kept records, and the pre-map mean-record-length estimator divides
// raw bytes by bytes-per-EFFECTIVE-record (estTotal is effective under
// a plan), embedding the selectivity without an extra correction.
func buildRefreshSources(env *core.Env, path string, opts core.Options, dec core.Decode, prog *plan.Program, synced, size, estTotal int64, refreshGen int) ([]core.RecordSource, int64, error) {
	splits, err := splitsSince(env.View(), path, synced)
	if err != nil {
		return nil, 0, err
	}
	sources, err := core.NewRecordSources(env, path, core.DealSplits(splits), opts, uint64(refreshGen)*refreshSalt, dec, prog)
	if err != nil {
		return nil, 0, err
	}
	var estNew int64
	if opts.Sampler == core.PostMapSampling {
		for _, s := range sources {
			estNew += s.Weight() // post-map weight is the exact record count
		}
	} else if estTotal > 0 && synced > 0 {
		avg := float64(synced) / float64(estTotal)
		estNew = int64(float64(size-synced)/avg + 0.5)
	}
	return sources, estNew, nil
}
