package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sampling"
	"repro/internal/simcost"
)

// This file is the generic execution engine every sampled EARL run goes
// through — scalar, multi-statistic and grouped alike. The paper's
// pipeline (long-lived sampling mappers, growing reducers reporting each
// round's error, the deterministic doubling expansion schedule, the §3.4
// finish on achieved accuracy) is implemented exactly once here, as one
// loop of rounds: draw, shuffle, fold, rule. The §3.3 reducer→mapper
// feedback is the loop's ruling between rounds (mr.Feedback): no error
// files are written and nothing polls; what the paper's files would cost
// is charged to simcost once per round.
//
// Records reach the engine already parsed: every RecordSource delivers
// column batches (source.go), whatever decoded them, and the mappers
// route whole batches — under the run's one synthetic key for scalar
// runs (the one-key degenerate case), by the records' own keys for
// grouped runs. The engine is parameterized over one small abstraction,
// Sink: it folds one round's records into the state it maintains and
// reports the partition's current error estimate. The scalar sink
// maintains one resample set per statistic (all fed the same shared
// sample); the grouped sink maintains one per group key.
//
// Everything upstream (pilot, planning) and downstream (the retained
// state) is Execute's (driver.go).

// Sink is a run's maintained result: the engine folds each round's
// routed records into one sink per reduce partition and asks it for the
// partition's error; a maintained query (internal/live) keeps the run's
// sink and folds every refresh's draws into it the same way; both render
// their reports from it. Nothing of the engine's round state is
// reachable from a sink, so keeping one keeps only results.
//
// During the run a sink is only ever called by its partition's fold, one
// round at a time; reads after the run are ordered by its return.
type Sink interface {
	// Fold grows the maintained state by one batch in canonical order —
	// keys sorted, each key's values sorted ascending — which is what
	// keeps fixed-seed runs bit-identical at any parallelism: the batch's
	// multiset is fixed by the seeds, its order by how the draws were
	// split among mappers and batches, and resample updates consume
	// seeded rng draws. Fold may reorder cols in place; a
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

// mapBatch bounds one draw of a mapper: the records it emits at once.
// valueBytes is the modelled shuffle size of one numeric value, a word.
const (
	mapBatch   = 128
	valueBytes = 8
)

// errNodeDied is the loss of a mapper's machine (§3.4).
var errNodeDied = errors.New("core: node died under mapper")

// runEngine executes the sampling job of §2.1 as the rounds it is made
// of: long-lived mappers keep their samplers across rounds and draw
// toward their share of the round's target; the per-partition reducers
// fold each round's routed records into their sinks before the mappers
// are done with the run and publish the partition's error, and the
// round's ruling (§3.3, mr.Feedback) terminates the job or doubles the
// target. A job that can make no more progress ends (§3.4): node
// failures and dry regions cost accuracy, never the answer.
//
// A round is bulk-synchronous — every mapper has met its share or gone
// dry before any partition folds — so the loop is the round barrier.
// Draws and folds each run side by side (mappers with each other,
// partitions with each other); a fold reads a multiset the draws fixed,
// which keeps fixed-seed runs bit-identical whatever the scheduling.
func runEngine(env *Env, path string, opts Options, spec engineSpec) (engineResult, error) {
	splits, err := env.View().Splits(path, 0)
	if err != nil {
		return engineResult{}, err
	}
	owned := DealSplits(splits)
	sources, err := NewRecordSources(env, path, owned, opts, 0, spec.Decode, spec.Prog)
	if err != nil {
		return engineResult{}, err
	}
	res, err := runRounds(env, opts, &spec, sources)
	if err != nil {
		ReleaseSources(sources)
		return engineResult{}, err
	}
	res.Sources = sources
	return res, nil
}

// runRounds places the job and runs its rounds over one sampling
// stream per mapper.
func runRounds(env *Env, opts Options, spec *engineSpec, sources []RecordSource) (engineResult, error) {
	m, nr := len(sources), len(spec.Sinks)
	nodes, err := env.Cluster.Place(spec.Name, m, nr, env.Metrics)
	if err != nil {
		return engineResult{}, err
	}
	mappers := make([]mapper, m)
	for i := range mappers {
		mappers[i] = mapper{src: sources[i], node: nodes[i], out: make([]colscan.Cols, nr)}
		if spec.Keyed {
			mappers[i].routes = map[string]keyRoute{}
		}
	}
	parts := make([]partition, nr)
	cvs := make([]float64, nr)
	fb := mr.Feedback{Sigma: opts.Sigma, InitialN: spec.InitialN, MaxN: spec.MaxN}
	var received int64 // records routed to any partition, so far
	for target, round := spec.InitialN, 1; ; round++ {
		pool.ForEach(m, m, func(i int) error {
			mappers[i].draw(env, spec, share(target, i, m)-mappers[i].sent)
			return nil
		})
		// The shuffle, in mapper order.
		for i := range mappers {
			for p := range parts {
				out := &mappers[i].out[p]
				parts[p].gen.Vals = append(parts[p].gen.Vals, out.Vals...)
				parts[p].gen.Keys = append(parts[p].gen.Keys, out.Keys...)
				received += int64(out.Len())
				out.Reset()
			}
		}
		// A partition folds when the round's target was met — records
		// or not, so the round can be ruled on — or when it holds
		// records a dry or lost mapper's missing share left short.
		folding := 0
		for p := range parts {
			parts[p].due = received >= target || parts[p].gen.Len() > 0
			if parts[p].due {
				folding++
			}
		}
		if folding == 0 {
			break
		}
		err := pool.ForEach(nr, nr, func(p int) error {
			if !parts[p].due {
				return nil
			}
			cv, err := parts[p].fold(spec.Sinks[p], received)
			if err != nil {
				return fmt.Errorf("core: reduce[%d] of %q: %w", p, spec.Name, err)
			}
			cvs[p] = cv
			return nil
		})
		if err != nil {
			return engineResult{}, err
		}
		// A round some partition could not fold can never be ruled on.
		if folding < nr {
			break
		}
		next, stop := fb.Round(round, cvs, target, m, env.Metrics)
		if stop || next <= target {
			break
		}
		target = next
	}

	var res engineResult
	for p := range parts {
		res.Generations = max(res.Generations, parts[p].folds)
	}
	for i := range mappers {
		mp := &mappers[i]
		// Data corruption is not a lost node: a mapper that died on a
		// bad record (NaN/±Inf or a malformed line) fails the run so the
		// poisoned record surfaces, instead of being tolerated as §3.4
		// node loss and silently reporting an estimate over partial data.
		if errors.Is(mp.err, ErrBadRecord) {
			return engineResult{}, mp.err
		}
		if mp.err != nil || !env.Cluster.NodeAlive(mp.node) {
			res.FailedMaps++
		}
	}
	return res, nil
}

// share is mapper i's part of a total target across m mappers.
func share(target int64, i, m int) int64 {
	if int64(i) < target%int64(m) {
		return target/int64(m) + 1
	}
	return target / int64(m)
}

// mapper is one long-lived map task: its sampling stream, its node,
// what it has drawn toward the target, and the round's records routed
// to each reduce partition.
type mapper struct {
	src     RecordSource
	node    int
	sent    int64
	dry     bool  // delivers nothing more: ran out, or failed
	err     error // why it failed; tolerated unless a bad record (§3.4)
	batch   colscan.Cols
	batches int // batches drawn
	out     []colscan.Cols
	routes  map[string]keyRoute // keyed runs: each key's partition
}

// keyRoute is a group key's reduce partition and the last batch that
// carried it, so a batch counts its distinct keys.
type keyRoute struct{ part, batch int }

// draw extends the mapper's sample by owed records in batches,
// checking its node before each. Every batch is routed and charged as
// it is drawn, per key it carries — one shuffled value list each —
// so the counters move while the mappers run, as on a cluster.
func (mp *mapper) draw(env *Env, spec *engineSpec, owed int64) {
	for ; owed > 0 && !mp.dry; mp.batches++ {
		if !env.Cluster.NodeAlive(mp.node) {
			mp.err, mp.dry = errNodeDied, true
			return
		}
		mp.batch.Reset()
		n, err := mp.src.DrawCols(int(min(owed, mapBatch)), &mp.batch)
		mp.sent += int64(n)
		owed -= int64(n)
		if n > 0 {
			keys, keyBytes := 1, len(spec.Key)
			if spec.Keyed {
				keys, keyBytes = mp.routeKeyed(len(mp.out))
			} else {
				out := &mp.out[mr.HashPartition(spec.Key, len(mp.out))]
				out.Vals = append(out.Vals, mp.batch.Vals...)
			}
			env.Metrics.Charge(simcost.Snapshot{RecordsMapped: int64(n),
				BytesShuffled: int64(keyBytes) + valueBytes*int64(n), RecordsReduced: int64(keys)})
		}
		if errors.Is(err, sampling.ErrExhausted) {
			mp.dry = true
		} else if err != nil {
			mp.err, mp.dry = err, true
		}
	}
}

// routeKeyed routes the drawn batch record by record to its keys'
// partitions and returns the distinct keys it carried and their bytes.
func (mp *mapper) routeKeyed(nr int) (keys, keyBytes int) {
	for i, key := range mp.batch.Keys {
		r, ok := mp.routes[key]
		if !ok {
			r = keyRoute{part: mr.HashPartition(key, nr), batch: -1}
		}
		if r.batch != mp.batches {
			r.batch = mp.batches
			mp.routes[key] = r
			keys++
			keyBytes += len(key)
		}
		out := &mp.out[r.part]
		out.Vals = append(out.Vals, mp.batch.Vals[i])
		out.Keys = append(out.Keys, key)
	}
	return keys, keyBytes
}

// partition is one reduce partition's side of the run: the round's
// routed records (scalar runs leave Keys empty) and its folds.
type partition struct {
	gen        colscan.Cols
	due        bool // folds this round
	folds      int  // rounds folded, records or not
	foldedEver bool // any record ever folded into the sink
}

// fold grows sink by the round's records and returns the partition's
// error over the run's whole sample of received records.
func (pt *partition) fold(sink Sink, received int64) (float64, error) {
	pt.folds++
	if pt.gen.Len() > 0 {
		if err := sink.Fold(&pt.gen); err != nil {
			return 0, err
		}
		pt.foldedEver = true
		pt.gen.Reset()
	}
	if !pt.foldedEver {
		// A partition no group key routes to has no opinion: NaN is
		// skipped by the round's cv average (unlike +Inf, which means
		// "has data, needs more" and must keep the expansion going).
		return math.NaN(), nil
	}
	return sink.ErrorEstimate(received), nil
}
