// Package live implements maintained queries over continuously ingested
// data — EARL's delta-maintenance trick (§4.1) lifted from within one
// run to across the lifetime of a dataset.
//
// There is ONE maintained-query implementation here, mirroring the
// generic execution engine in internal/core: a shared refresh core
// (watchBase) owns the retained per-mapper without-replacement samplers,
// the ingest high-water mark, and the draw/expansion machinery, and is
// parameterized over a small maintSink abstraction that says how drawn
// records fold into maintained state and what the current error is.
// Drawn records are parsed column batches (colscan.Cols) whatever
// decoded them — the retained sources apply a custom parser where they
// read, exactly as in the initial run — so there is one draw path and
// one fold per sink. Query folds every record into one resample set per
// statistic (the scalar case is the one-statistic degenerate form; a
// multi-statistic watch shares the one sample across all of them);
// GroupedQuery routes records by key into one resample set per group —
// grouped is just many sinks' worth of state behind the same refresh
// loop.
//
// A Query is created by WatchMulti (or WatchPlan): it runs the normal
// early-accurate workflow once, then keeps the run's working state
// alive — the SSABE plans, the delta-maintained bootstrap resample sets
// (with every per-resample sketch state), and the per-mapper samplers.
// When data is appended to the watched file (dfs.Append cuts new blocks
// without disturbing existing splits), Refresh:
//
//  1. samples only the appended splits at the query's current sampling
//     fraction p, so the combined sample stays (approximately) uniform
//     over the concatenated data;
//  2. feeds that delta through the retained resample sets — sharded
//     across Options.Parallelism workers under the engine-wide
//     fixed-seed determinism contract;
//  3. re-estimates the error, and re-expands the sample (drawing from
//     old and new regions alike, still without replacement) only if the
//     σ bound is violated.
//
// A refresh therefore reads o(N) records — proportional to the appended
// delta plus any expansion — never the whole file; the cost is visible
// in simcost counters (Refreshes, RecordsRead, BytesRead) so experiments
// can compare maintained refreshes against from-scratch re-runs.
//
// Queries whose initial run fell back to the exact path (tiny data, or
// SSABE's B×n ≥ N) are maintained exactly instead: the user jobs'
// incremental reduce states are grown with every appended record
// (mr.InitializeOrUpdate), which is still delta-proportional work.
package live

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sampling"
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

// maintSink is how a maintained query's state consumes freshly drawn
// records: Query folds them into every statistic's resample set,
// GroupedQuery routes them by key into per-group sets. The shared
// refresh loop in watchBase is written against this interface alone.
type maintSink interface {
	// foldCols grows the maintained state by one drawn batch in
	// canonical order (the determinism contract of the in-run engine).
	foldCols(cols *colscan.Cols) error
	// size returns the records currently held in the maintained sample.
	size() int64
	// errEstimate returns the current worst error; +Inf when it cannot
	// be trusted (no data, degenerate distribution, undersampled group).
	errEstimate() float64
}

// watchBase is the shared core of every maintained query: the retained
// sampler streams, the ingest high-water mark, and the refresh loop.
// The embedding query type provides the lock discipline (all watchBase
// methods assume mu is held).
type watchBase struct {
	mu   sync.Mutex
	env  *core.Env
	path string
	opts core.Options
	// origOpts are the options the watch was opened with, before any
	// defaulting — a rewrite-triggered rebuild re-runs the creation with
	// exactly these, so the rebuilt watch is bit-identical to a fresh
	// watch opened over the rewritten file.
	origOpts core.Options
	// decode is how the watched records are parsed, derived once from
	// the watch's fixed inputs (job or route, prog) — so it holds
	// whichever path the creation run or a rebuild takes, and every
	// refresh's new sampler streams are built on the same one.
	decode core.Decode
	// prog is the compiled query plan pushed into every refresh's new
	// sampler streams; nil for legacy (plan-free) watches.
	prog *plan.Program

	sources  []core.RecordSource
	dry      []bool // aligned with sources
	estTotal int64
	synced   int64 // file bytes covered (ingest high-water mark)
	version  int64 // watched file's write generation at the last sync

	refreshGen int
	closed     bool
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
func (b *watchBase) beginRefresh(v dfs.View) (size int64, appended, rewritten bool, err error) {
	if b.closed {
		return 0, false, false, ErrClosed
	}
	ver, err := v.Version(b.path)
	if err != nil {
		return 0, false, false, err
	}
	if ver != b.version {
		b.refreshGen++
		return 0, false, true, nil
	}
	size, err = v.Stat(b.path)
	if err != nil {
		return 0, false, false, err
	}
	if size < b.synced {
		// Unreachable while versions are per-WriteFile (a same-version
		// file only grows), kept as a tripwire.
		return 0, false, false, fmt.Errorf("%w: %s", ErrTruncated, b.path)
	}
	if size == b.synced {
		return size, false, false, nil
	}
	b.env.Metrics.Refreshes.Add(1)
	b.refreshGen++
	return size, true, false, nil
}

// refreshSampled is the maintained-sample refresh described in the
// package comment: extend coverage over the appended region at the
// current sampling fraction, then re-expand (over the whole file,
// without replacement, the in-run doubling schedule) while the sink's
// error violates σ. penv's data view is the refresh's pinned snapshot:
// every source — retained and new alike — is repinned onto it for the
// duration, so the whole refresh reads one commit point even while
// ingest lands concurrently, and repinned back onto the live filesystem
// before the caller releases the snapshot.
func (b *watchBase) refreshSampled(penv *core.Env, size int64, sk maintSink) error {
	b.sources, b.dry = compactSources(b.sources, b.dry)
	core.RepinSources(b.sources, penv.View())
	defer func() { core.RepinSources(b.sources, b.env.FS) }()
	if size > b.synced {
		newSources, estNew, err := buildRefreshSources(
			penv, b.path, b.opts, b.decode, b.prog, b.synced, size, b.estTotal, b.refreshGen)
		if err != nil {
			return err
		}
		// Sample the appended region at the query's current fraction so
		// the maintained sample stays uniform over old ∪ new.
		p := float64(sk.size()) / float64(b.estTotal)
		if p > 1 {
			p = 1
		}
		nDelta := int64(p*float64(estNew) + 0.5)
		if nDelta > estNew {
			nDelta = estNew
		}
		from := len(b.sources)
		b.sources = append(b.sources, newSources...)
		b.dry = append(b.dry, make([]bool, len(newSources))...)
		b.estTotal += estNew
		b.synced = size
		if nDelta > 0 {
			if _, err := b.drawAndFold(from, len(b.sources), int(nDelta), sk, true); err != nil {
				return err
			}
		}
	}

	// Re-estimate, and re-expand only if σ is violated — the same
	// doubling schedule as the in-run expansion loop, drawing from every
	// region of the file without replacement.
	cv := sk.errEstimate()
	maxSample := int64(b.opts.MaxSampleFraction * float64(b.estTotal))
	for cv > b.opts.Sigma && sk.size() < maxSample {
		next := sk.size() * 2
		if next > maxSample {
			next = maxSample
		}
		k := next - sk.size()
		if k <= 0 {
			break
		}
		n, err := b.drawAndFold(0, len(b.sources), int(k), sk, false)
		if err != nil {
			return err
		}
		if n == 0 {
			break // every region exhausted: finish with achieved accuracy
		}
		cv = sk.errEstimate()
	}
	return nil
}

// drawAndFold draws up to total records across sources[from:to] and
// folds them into the sink, returning how many records were drawn.
// foldEmpty preserves the delta branch's behaviour of folding even an
// empty draw (the fold counts a generation); the expansion loop instead
// checks the count first so an exhausted file terminates it.
func (b *watchBase) drawAndFold(from, to, total int, sk maintSink, foldEmpty bool) (int, error) {
	cols, err := b.drawColsAcross(from, to, total)
	if err != nil {
		return 0, err
	}
	if cols.Len() == 0 && !foldEmpty {
		return 0, nil
	}
	return cols.Len(), sk.foldCols(cols)
}

// closeBase releases the retained samplers; the last report stays
// readable on the embedding query.
func (b *watchBase) closeBase() {
	b.closed = true
	b.sources = nil
	b.dry = nil
}

// drawColsAcross draws total records from sources[from:to], apportioned
// by source weight and drawn concurrently across Options.Parallelism
// workers. Each source owns a deterministic rng stream and the per-slot
// column batches are concatenated in source order, so the returned
// records are identical at any parallelism. Sources that run dry
// contribute what they have; a second, sequential pass redistributes
// any shortfall to the remaining live sources.
func (b *watchBase) drawColsAcross(from, to, total int) (*colscan.Cols, error) {
	type slot struct {
		idx   int
		share int
	}
	var slots []slot
	var weightSum int64
	for i := from; i < to; i++ {
		if b.dry[i] {
			continue
		}
		w := b.sources[i].Weight()
		if w <= 0 {
			continue
		}
		slots = append(slots, slot{idx: i})
		weightSum += w
	}
	flat := &colscan.Cols{}
	if len(slots) == 0 || weightSum == 0 {
		return flat, nil
	}
	// Largest-remainder apportionment of total across the live sources.
	assigned := 0
	for si := range slots {
		w := b.sources[slots[si].idx].Weight()
		slots[si].share = int(int64(total) * w / weightSum)
		assigned += slots[si].share
	}
	for si := 0; assigned < total; si = (si + 1) % len(slots) {
		slots[si].share++
		assigned++
	}

	out := make([]colscan.Cols, len(slots))
	workers := pool.Workers(b.opts.Parallelism)
	err := pool.ForEach(len(slots), workers, func(si int) error {
		s := slots[si]
		if s.share == 0 {
			return nil
		}
		dry, err := b.drawOneCols(s.idx, s.share, &out[si])
		if err != nil {
			return err
		}
		if dry {
			b.dry[s.idx] = true // distinct index per worker: no race
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
		if b.dry[slots[si].idx] {
			continue
		}
		dry, err := b.drawOneCols(slots[si].idx, total-flat.Len(), flat)
		if err != nil {
			return nil, err
		}
		if dry {
			b.dry[slots[si].idx] = true
		}
	}
	return flat, nil
}

// drawOneCols draws up to k decoded records from source i into out.
func (b *watchBase) drawOneCols(i, k int, out *colscan.Cols) (dry bool, err error) {
	_, err = b.sources[i].DrawCols(k, out)
	if errors.Is(err, sampling.ErrExhausted) {
		return true, nil
	}
	return false, err
}

// compactSources drops permanently-dry sources so a long-lived watch
// does not accumulate one dead shard set per refresh — post-map sources
// in particular pin their undrawn records in memory until released. Dry
// sources contribute nothing to draws, so pruning never changes results.
func compactSources(sources []core.RecordSource, dry []bool) ([]core.RecordSource, []bool) {
	outS := make([]core.RecordSource, 0, len(sources))
	outD := make([]bool, 0, len(dry))
	for i, s := range sources {
		if dry[i] {
			continue
		}
		outS = append(outS, s)
		outD = append(outD, false)
	}
	return outS, outD
}

// splitsSince returns the splits wholly beyond the sync point, read
// through v (the refresh's pinned snapshot). Splits are segment-aware,
// so the boundary is exact.
func splitsSince(v dfs.View, path string, splitSize, synced int64) ([]dfs.Split, error) {
	splits, err := v.Splits(path, splitSize)
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
	splits, err := splitsSince(env.View(), path, opts.SplitSize, synced)
	if err != nil {
		return nil, 0, err
	}
	m := opts.NumMappers
	if m > len(splits) {
		m = len(splits)
	}
	if m < 1 {
		m = 1
	}
	owned := make([][]dfs.Split, m)
	for i, sp := range splits {
		owned[i%m] = append(owned[i%m], sp)
	}
	sources, err := core.NewRecordSources(env, path, owned, opts, uint64(refreshGen)*refreshSalt, dec, prog)
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
