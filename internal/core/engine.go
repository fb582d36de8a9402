package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/plan"
	"repro/internal/sampling"
)

// This file is the generic execution engine every sampled EARL run goes
// through — scalar, multi-statistic and grouped alike. The paper's
// pipeline (long-lived sampling mappers, growing reducers reporting each
// round's error, the deterministic doubling expansion schedule, the §3.4
// finish on achieved accuracy) is implemented exactly once here, with
// the §3.3 reducer→mapper feedback as mr.Controller's in-memory round
// barrier: no error files are written and nothing polls; what the
// paper's files would cost is charged to simcost by the barrier.
//
// Records reach the engine already parsed: every RecordSource delivers
// column batches (source.go), whatever decoded them, and the mappers
// emit whole []float64 batches — under the run's one synthetic key for
// scalar runs (the one-key degenerate case), bucketed by the records'
// own keys for grouped runs. The engine is parameterized over one small
// abstraction, Sink: it folds one growth generation of records into the
// state it maintains and reports the partition's current error
// estimate. The scalar sink maintains one resample set per statistic
// (all fed the same shared sample); the grouped sink maintains one per
// group key.
//
// Everything upstream (pilot, planning) and downstream (the retained
// state) is Execute's (driver.go).

// Sink is a run's maintained result: the engine folds each round's
// routed records into one sink per reduce partition and asks it for the
// partition's error; a maintained query (internal/live) keeps the run's
// sink and folds every refresh's draws into it the same way; both render
// their reports from it. Nothing of the engine — buffers, channels, the
// barrier — is reachable from a sink, so keeping one keeps only results.
//
// During the run a sink is only ever called from its partition's reducer
// goroutine; reads after the run are ordered by the engine's completion.
type Sink interface {
	// Fold grows the maintained state by one batch in canonical order —
	// keys sorted, each key's values sorted ascending — which is what
	// keeps fixed-seed runs bit-identical at any parallelism: the batch's
	// multiset is deterministic, but arrival order is not, and resample
	// updates consume seeded rng draws. Fold may reorder cols in place; a
	// scalar sink ignores cols.Keys.
	Fold(cols *colscan.Cols) error
	// Size returns the records currently held in the maintained sample.
	Size() int64
	// ErrorEstimate returns the error of the current state; +Inf when it
	// cannot be trusted yet (no data, degenerate distribution, a group
	// below its minimum sample). n is the whole sample's size — Size()
	// for a sink that holds it all, more for one partition's of a run.
	ErrorEstimate(n int64) float64
	// Result renders the current state as reports, for the run that owns
	// r and for every later refresh (refreshes counts them).
	Result(r *Retained, refreshes int) (*PlanResult, error)
}

// engineSpec parameterizes one run of the generic engine.
type engineSpec struct {
	Name     string // MR job name (cosmetic/metrics)
	Sinks    []Sink // one per reduce partition
	InitialN int64  // the planned initial sample target
	MaxN     int64  // expansion cap (records)
	// Decode is how the run's sampling sources parse records.
	Decode Decode
	// Key is the reduce key every record of a scalar run routes to (the
	// one-key degenerate case).
	Key string
	// Keyed marks runs whose records route by their own keys (grouped
	// runs). A scalar run may still scan keyed input — a plan filtering
	// on the key column of "k\tv" lines — and routes every survivor to
	// the one synthetic Key.
	Keyed bool
	// Prog, when non-nil, is the compiled query plan pushed into the
	// sampling sources: σ runs at pool fill / draw time, so every record
	// reaching the mappers is already filtered, derived and labeled.
	Prog *plan.Program
}

// engineResult is what the engine hands back to the driver; the results
// themselves live in the sinks.
type engineResult struct {
	Generations int
	FailedMaps  int
	Sources     []RecordSource // per-mapper samplers, the caller's to retain or release
}

// DealSplits deals splits round-robin across at most numMappers owners
// (at least one): how a run's mappers share the file, and how a
// maintained query's refresh streams share the region appended since.
func DealSplits(splits []dfs.Split) [][]dfs.Split {
	m := max(min(numMappers, len(splits)), 1)
	owned := make([][]dfs.Split, m)
	for i, sp := range splits {
		owned[i%m] = append(owned[i%m], sp)
	}
	return owned
}

// newController is mr.NewController; a test swaps it to probe that
// nothing a run retains can reach the run's barrier.
var newController = mr.NewController

// runEngine executes the pipelined sampling job of §2.1: long-lived
// mappers draw from their retained samplers toward their share of the
// barrier's target and park on it between rounds; the per-partition
// reducers fold each round's routed deltas into their sinks and publish
// the partition's error to the barrier, which terminates the job or
// doubles the target once per round (§3.3) and ends jobs that can make
// no more progress (§3.4): node failures and dry regions cost accuracy,
// never the answer.
func runEngine(env *Env, path string, opts Options, spec engineSpec) (engineResult, error) {
	splits, err := env.View().Splits(path, 0)
	if err != nil {
		return engineResult{}, err
	}
	owned := DealSplits(splits)
	m := len(owned)
	sources, err := NewRecordSources(env, path, owned, opts, 0, spec.Decode, spec.Prog)
	if err != nil {
		return engineResult{}, err
	}

	ctrl := newController(mr.Feedback{
		Mappers:    m,
		Partitions: len(spec.Sinks),
		Sigma:      opts.Sigma,
		InitialN:   spec.InitialN,
		MaxN:       spec.MaxN,
		Metrics:    env.Metrics,
	})

	// arrived counts the records all partitions have received. The barrier
	// hands out a round only once the shuffle has drained, so whenever a
	// partition folds it is the whole run's sample, whatever the timing.
	var arrived atomic.Int64

	mapLoop := func(ctx *mr.MapStream, idx int) error {
		const batch = 128
		var buckets map[string][]float64
		if spec.Keyed {
			buckets = map[string][]float64{}
		}
		for {
			k, ok := ctx.AwaitQuota(idx)
			if !ok {
				if !ctx.NodeAlive() {
					return fmt.Errorf("core: node died under mapper %d", idx)
				}
				return nil
			}
			if k > batch {
				k = batch
			}
			// Emission is share-gated: a batch never exceeds the mapper's
			// remaining share. Fresh columns per batch — the emitted
			// slices cross the shuffle channel and are retained by the
			// reducer until its next fold.
			cols := &colscan.Cols{}
			n, err := sources[idx].DrawCols(int(k), cols)
			if n > 0 {
				if spec.Keyed {
					emitKeyed(ctx, cols, buckets)
				} else {
					ctx.Emit(spec.Key, cols.Vals)
				}
			}
			// Accounted after the emits return, errors included: the
			// barrier's "shuffle drained" compares emitted with received.
			ctrl.Sent(idx, n)
			if errors.Is(err, sampling.ErrExhausted) {
				ctrl.Dry(idx)
			} else if err != nil {
				return err
			}
		}
	}

	sjob := &mr.StreamJob{
		Name:        spec.Name,
		NumMappers:  m,
		NumReducers: len(spec.Sinks),
		Control:     ctrl,
		MapTask:     mapLoop,
		ReduceTask: func(part int, in <-chan mr.KV) error {
			sink := spec.Sinks[part]
			// The round's routed records, in arrival order (scalar runs leave
			// Keys empty); the sink puts them in canonical order.
			var gen colscan.Cols
			foldedEver := false // any record ever folded into this sink
			growAll := func() error {
				if gen.Len() > 0 {
					if err := sink.Fold(&gen); err != nil {
						return err
					}
					foldedEver = true
					gen.Reset()
				}
				cv := sink.ErrorEstimate(arrived.Load())
				if !foldedEver {
					// A partition no group key routes to has no opinion:
					// NaN is skipped by the round's cv average (unlike
					// +Inf, which means "has data, needs more" and must
					// keep the expansion going).
					cv = math.NaN()
				}
				ctrl.Publish(part, cv)
				return nil
			}
			// Each partition folds exactly once per expansion target —
			// the round's full routed multiset, whatever the arrival
			// interleaving — which keeps multi-partition runs
			// deterministic. The barrier's Ready token says when: a round
			// can complete without this partition seeing another arrival.
			for {
				select {
				case kv, ok := <-in:
					if !ok {
						// Terminated with deltas still buffered (the §3.4
						// exit): fold them in, the answer keeps every
						// record that arrived.
						if gen.Len() > 0 {
							return growAll()
						}
						return nil
					}
					vals, ok := kv.Value.([]float64)
					if !ok {
						return fmt.Errorf("core: reducer got %T", kv.Value)
					}
					// One mapper batch, counted per record.
					gen.Vals = append(gen.Vals, vals...)
					if spec.Keyed {
						for range vals {
							gen.Keys = append(gen.Keys, kv.Key)
						}
					}
					arrived.Add(int64(len(vals)))
					ctrl.Received(part, len(vals))
				case <-ctrl.Ready(part):
					if err := growAll(); err != nil {
						return err
					}
				}
			}
		},
	}

	// Every mapper has returned by the time RunPipelined does, so a
	// failed run can release the sources at once.
	sres, err := env.Engine.RunPipelined(sjob)
	if err != nil {
		ReleaseSources(sources)
		return engineResult{}, err
	}
	// Data corruption is not a lost node: a mapper that died on a bad
	// record (NaN/±Inf or a malformed line) must fail the run so the
	// poisoned record surfaces, instead of being tolerated as §3.4 node
	// loss and silently reporting an estimate over partial data.
	for _, merr := range sres.MapperErrs {
		if errors.Is(merr, ErrBadRecord) {
			ReleaseSources(sources)
			return engineResult{}, merr
		}
	}
	return engineResult{
		Generations: ctrl.Rounds(),
		FailedMaps:  len(sres.FailedMappers),
		Sources:     sources,
	}, nil
}

// emitKeyed buckets one decoded batch by group key and emits one fresh
// []float64 per key (the batched grouped route). scratch is the
// mapper's reusable bucket map; emitted slices are copies because they
// cross the shuffle channel and outlive the next batch. Emission order
// over keys is map order — safe here because the reducer buffers a full
// generation and the sink folds it canonically (sorted keys, sorted
// values), so within-generation arrival order never reaches the
// resample streams.
func emitKeyed(ctx *mr.MapStream, cols *colscan.Cols, scratch map[string][]float64) {
	for i, key := range cols.Keys {
		scratch[key] = append(scratch[key], cols.Vals[i])
	}
	for key, vs := range scratch { //earl:nondet-ok reducer buffers the generation and folds it canonically (sorted keys, sorted values)
		if len(vs) == 0 {
			continue
		}
		ctx.Emit(key, append([]float64(nil), vs...))
		scratch[key] = vs[:0]
	}
}
