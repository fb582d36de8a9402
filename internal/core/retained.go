package core

import (
	"errors"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sampling"
)

// This file is a run kept: the state a run leaves behind when asked to,
// and how it grows when data is appended to its file — EARL's delta
// maintenance (§4.1) lifted from within one run to across the lifetime
// of a dataset. The rounds of a run (engine.go) and the refreshes of a
// kept one are the only two places a sample grows.

// Retained is the working state a run leaves behind when asked to: the
// sink the run folded into, the per-mapper sampling streams it drew
// from, and what the run learned about the input. Execute drops it for
// a one-shot; a maintained query (internal/live) keeps it and grows it
// with Refresh — the run, kept. A run that took the exact fall-back
// keeps an exactSink and no streams: it has no sample, only every
// record's fold.
type Retained struct {
	sink    sink           // never nil
	plans   []aes.Plan     // per-statistic SSABE plans (nil for grouped runs and tiny files)
	sources []recordSource // per-mapper samplers (without-replacement across refreshes)
	dry     []bool         // aligned with sources: the source has no record left
	path    string
	dec     decode
	prog    *plan.Program // nil without a plan
	opts    Options       // with defaults applied

	estTotal    int64   // estimated records covered so far
	syncedBytes int64   // file bytes covered (the ingest high-water mark)
	generations int     // engine rounds of the run
	folds       int     // folds applied since the run (one per refresh fold, empty delta folds included)
	selSE       float64 // relative std. error of the filtered-subpopulation size estimate (0 = exact)
}

// refreshSalt spaces the seed ranges of sampler streams created for
// successive ingest generations, so a refresh's new samplers never share
// a stream with the initial run's or an earlier refresh's.
const refreshSalt = 0x51_7cc1b7_2722_0a95

// retainExact keeps r, a run on the exact fall-back, over the file's
// size bytes: the one column scan of the whole file (scanExact) folds
// into an exactSink — one empty incremental reduce state per statistic,
// grown by every record — rather than being handed to each statistic,
// so every refresh after reads only the appended splits.
func retainExact(env *Env, jset []jobs.Numeric, r *Retained, size int64) (*PlanResult, *Retained, error) {
	var err error
	if r.sink, err = newExactSink(jset); err != nil {
		return nil, nil, err
	}
	res, err := r.Refresh(env, size, 0)
	if err != nil {
		return nil, nil, err
	}
	return res, r, nil
}

// Result renders the retained sink's current state. refreshes is how
// many refreshes a maintained query has applied (0 for the run itself).
func (r *Retained) Result(refreshes int) (*PlanResult, error) {
	return r.sink.Result(r, refreshes)
}

// Size returns the records the retained state holds: the sample (across
// every group, for a grouped run), or every record on the exact path.
func (r *Retained) Size() int64 { return r.sink.Size() }

// SyncedBytes returns the file bytes the retained state covers.
func (r *Retained) SyncedBytes() int64 { return r.syncedBytes }

// Release gives back the retained sampling streams; the sink stays
// readable, and nothing may be refreshed after.
func (r *Retained) Release() {
	releaseSources(r.sources)
	r.sources, r.dry = nil, nil
}

// Refresh grows the retained state over the file as run reads it — a
// run's Env: one pinned commit, the maintained query's ledger — from the
// sync point up to size bytes, and renders the result; refreshes counts
// the refreshes applied, this one included, and salts the seeds of the
// new streams. On the exact path the appended splits are scanned whole
// into the exactSink. Otherwise:
//
//  1. the appended splits are sampled at the sample's current fraction
//     p, so the sample stays (approximately) uniform over old ∪ new;
//  2. that delta is folded into the retained sink exactly as the engine
//     folds a round;
//  3. the error is re-estimated, and the sample re-expands — drawing
//     from old and new regions alike, still without replacement — only
//     while σ is violated, up to MaxSampleShare of the data.
//
// Every source, retained and new alike, is repinned onto run's commit
// for the refresh, so it reads one commit even while ingest lands
// concurrently, and back onto the live filesystem after (a retained
// source must not keep a commit alive).
func (r *Retained) Refresh(run *Env, size int64, refreshes int) (*PlanResult, error) {
	var err error
	if _, exact := r.sink.(*exactSink); exact {
		err = r.refreshExact(run, size)
	} else {
		err = r.refreshSampled(run, size, refreshes)
	}
	if err != nil {
		return nil, err
	}
	return r.Result(refreshes)
}

// refreshExact scans the splits beyond the sync point into the
// exactSink.
func (r *Retained) refreshExact(run *Env, size int64) error {
	splits, err := splitsSince(run.View(), r.path, r.syncedBytes)
	if err != nil {
		return err
	}
	vals, err := scanExact(run, r.path, splits, r.dec, r.prog)
	if err != nil {
		return err
	}
	if err := r.sink.Fold(&colscan.Cols{Vals: vals}); err != nil {
		return err
	}
	r.estTotal, r.syncedBytes = r.sink.Size(), size
	return nil
}

// refreshSampled is Refresh's steps 1–3.
func (r *Retained) refreshSampled(run *Env, size int64, refreshes int) error {
	r.compactSources()
	repinSources(r.sources, run.View())
	defer func() { repinSources(r.sources, run.FS) }()
	if size > r.syncedBytes {
		newSources, estNew, err := r.refreshSources(run, size, refreshes)
		if err != nil {
			return err
		}
		// Sample the appended region at the query's current fraction so
		// the maintained sample stays uniform over old ∪ new.
		p := min(float64(r.sink.Size())/float64(r.estTotal), 1)
		nDelta := min(int64(p*float64(estNew)+0.5), estNew)
		from := len(r.sources)
		r.sources = append(r.sources, newSources...)
		r.dry = append(r.dry, make([]bool, len(newSources))...)
		r.estTotal += estNew
		r.syncedBytes = size
		if nDelta > 0 {
			if _, err := r.drawAndFold(from, len(r.sources), int(nDelta), true); err != nil {
				return err
			}
		}
	}

	// Re-estimate, and re-expand only if σ is violated — the doubling
	// schedule the engine applies between rounds, here over the one
	// merged sink, drawing from every region of the file without
	// replacement.
	cv := r.sink.ErrorEstimate(r.sink.Size())
	maxSample := int64(MaxSampleShare * float64(r.estTotal))
	for cv > r.opts.Sigma && r.sink.Size() < maxSample {
		k := min(r.sink.Size()*2, maxSample) - r.sink.Size()
		if k <= 0 {
			break
		}
		n, err := r.drawAndFold(0, len(r.sources), int(k), false)
		if err != nil {
			return err
		}
		if n == 0 {
			break // every region exhausted: finish with achieved accuracy
		}
		cv = r.sink.ErrorEstimate(r.sink.Size())
	}
	return nil
}

// drawAndFold draws up to total records across sources[from:to] and
// folds them into the sink, returning how many records were drawn.
// foldEmpty preserves the delta branch's behaviour of folding even an
// empty draw (the fold counts a generation); the expansion loop instead
// checks the count first so an exhausted file terminates it.
func (r *Retained) drawAndFold(from, to, total int, foldEmpty bool) (int, error) {
	cols, err := r.drawColsAcross(from, to, total)
	if err != nil {
		return 0, err
	}
	if cols.Len() == 0 && !foldEmpty {
		return 0, nil
	}
	r.folds++
	return cols.Len(), r.sink.Fold(cols)
}

// drawColsAcross draws total records from sources[from:to], apportioned
// by source weight and drawn concurrently across Options.Parallelism
// workers. Each source owns a deterministic rng stream and the per-slot
// column batches are concatenated in source order, so the returned
// records are identical at any parallelism. Sources that run dry
// contribute what they have; a second, sequential pass redistributes
// any shortfall to the remaining live sources.
func (r *Retained) drawColsAcross(from, to, total int) (*colscan.Cols, error) {
	type slot struct {
		idx   int
		share int
	}
	var slots []slot
	var weightSum int64
	for i := from; i < to; i++ {
		if r.dry[i] {
			continue
		}
		weight := r.sources[i].Weight()
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
		weight := r.sources[slots[si].idx].Weight()
		slots[si].share = int(int64(total) * weight / weightSum)
		assigned += slots[si].share
	}
	for si := 0; assigned < total; si = (si + 1) % len(slots) {
		slots[si].share++
		assigned++
	}

	out := make([]colscan.Cols, len(slots))
	workers := pool.Workers(r.opts.Parallelism)
	err := pool.ForEach(len(slots), workers, func(si int) error {
		s := slots[si]
		if s.share == 0 {
			return nil
		}
		return r.drawOneCols(s.idx, s.share, &out[si]) // distinct index per worker: no race
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
		if r.dry[slots[si].idx] {
			continue
		}
		if err := r.drawOneCols(slots[si].idx, total-flat.Len(), flat); err != nil {
			return nil, err
		}
	}
	return flat, nil
}

// drawOneCols draws up to k decoded records from source i into out,
// marking the source dry once it has none left.
func (r *Retained) drawOneCols(i, k int, out *colscan.Cols) error {
	_, err := r.sources[i].DrawCols(k, out)
	if errors.Is(err, sampling.ErrExhausted) {
		r.dry[i] = true
		return nil
	}
	return err
}

// compactSources drops, and releases, permanently-dry sources so a
// long-lived watch does not accumulate one dead shard set per refresh —
// post-map sources in particular pin their undrawn records in memory
// until released. Dry sources contribute nothing to draws, so pruning
// never changes results.
func (r *Retained) compactSources() {
	kept := make([]recordSource, 0, len(r.sources))
	for i, s := range r.sources {
		if r.dry[i] {
			s.Release()
			continue
		}
		kept = append(kept, s)
	}
	r.sources, r.dry = kept, make([]bool, len(kept))
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

// refreshSources constructs the sampler streams over the region from
// the sync point to size (one per mapper shard, refresh-salted seeds)
// and estimates how many records they cover: exact for post-map (the
// pool counted them while scanning), mean-record-length based for
// pre-map — the same §3.3 estimator the initial run uses, with the mean
// taken from the estTotal records known to span the synced bytes.
//
// Under a plan the new streams deliver post-filter transformed records
// and every estimate stays denominated in the effective subpopulation:
// post-map weights count kept records, and the pre-map
// mean-record-length estimator divides raw bytes by
// bytes-per-EFFECTIVE-record (estTotal is effective under a plan),
// embedding the selectivity without an extra correction.
func (r *Retained) refreshSources(run *Env, size int64, refreshes int) ([]recordSource, int64, error) {
	splits, err := splitsSince(run.View(), r.path, r.syncedBytes)
	if err != nil {
		return nil, 0, err
	}
	sources, err := newRecordSources(run, r.path, dealSplits(splits), r.opts, uint64(refreshes)*refreshSalt, r.dec, r.prog)
	if err != nil {
		return nil, 0, err
	}
	var estNew int64
	if r.opts.Sampler == PostMapSampling {
		for _, s := range sources {
			estNew += s.Weight() // post-map weight is the exact record count
		}
	} else if r.estTotal > 0 && r.syncedBytes > 0 {
		avg := float64(r.syncedBytes) / float64(r.estTotal)
		estNew = int64(float64(size-r.syncedBytes)/avg + 0.5)
	}
	return sources, estNew, nil
}
