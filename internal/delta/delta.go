// Package delta implements §4's resampling optimizations:
//
//   - inter-iteration maintenance (§4.1): when the sample s grows to
//     s′ = s ∪ Δs, each bootstrap resample is *updated* instead of
//     redrawn — the retained-part size follows Binomial(n′, n/n′)
//     (Eq. 2), approximated for large n′ by the Gaussian of Eq. 3 —
//     with random deletes/adds served from the two-layer sketches of
//     package sketch, and the user-job states updated incrementally;
//
//   - intra-iteration sharing (§4.2): Eq. 4 gives the probability that
//     a fraction y of a resample is identical to another's; the optimal
//     y maximising expected saved work P(X=y)·y lets EARL compute a
//     shared block of each resample once and reuse it.
//
// The B resamples are mutually independent, so each owns its own rng
// stream (derived deterministically from Config.Seed) and its own
// sketches; Grow shards the per-resample update work across a worker
// pool of Config.Parallelism goroutines and produces identical results
// at any parallelism level.
//
// The per-item hot path is allocation-free in steady state: a
// generation's deletes and adds are collected into per-worker scratch
// buffers (internal/pool) and applied to the user-job state in one
// batched interface call each (mr.RemoveValues / mr.UpdateAll), and the
// weighted part/generation picks run on Fenwick trees instead of linear
// cumulative scans — same rng-for-rng pick, O(log) instead of O(parts).
// A worker takes resamples a few at a time (growLanes) and folds the
// group's draws from the new generation — the bulk of a Grow — in one
// mr.UpdateLanes call, so reducers whose update is a latency-bound
// arithmetic chain step the group's states side by side. For reducers
// whose state is a function of a batch's multiset (mr.MultisetReducer:
// the quantiles) Grow sorts Δs once instead — mr.Rank — and every
// resample, which draws from Δs by position, counts its draws by rank
// and hands its state the counts: one increment per item where each
// state used to sort its own batch. A caller growing several maintainers
// over the same Δs ranks it once and hands each the ranking (GrowRanked).
package delta

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/mr"
	"repro/internal/pool"
	"repro/internal/simcost"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// seed2Base is the second PCG seed word for per-resample streams.
const seed2Base = 0x1f83d9abfb41bd6b

// growLanes is how many resamples one worker grows as a group: the
// width the lane kernels step, so a full group is one kernel pass.
// Grouping is scheduling only — results are the same for any group size.
const growLanes = stats.WelfordLanes

// RetainedSize draws |b′_s| — how many of a resample's n′ items come
// from the old sample s of size n rather than from Δs — from
// Binomial(n′, n/n′) (Eq. 2). stats.Binomial switches to the Eq. 3
// Gaussian approximation exactly when the paper's argument applies
// (large n′).
func RetainedSize(rng *rand.Rand, n, nPrime int) (int, error) {
	if n < 0 || nPrime < n {
		return 0, fmt.Errorf("delta: need 0 ≤ n ≤ n′, got n=%d n′=%d", n, nPrime)
	}
	if nPrime == 0 {
		return 0, nil
	}
	return stats.Binomial(rng, nPrime, float64(n)/float64(nPrime)), nil
}

// Maintainer owns B bootstrap resamples of a growing sample and the
// per-resample user-job states, applying inter-iteration delta
// maintenance on each Grow call. It is the engine behind EARL's cheap
// sample-size expansion.
type Maintainer struct {
	red     mr.IncrementalReducer
	b       int
	c       float64
	par     int
	seed    uint64
	metrics *simcost.Metrics

	n int
	// genTree holds |Δs_k| per generation for O(log gens) weighted picks.
	// The Δs_k data itself lives on in the per-resample sketch caches,
	// which are the draw path's actual consumers.
	genTree   stats.Fenwick
	resamples []*resample
	key       string
	rebuilds  atomic.Int64 // states rebuilt because Remove was unsupported
	updates   atomic.Int64 // state add/remove operations performed (work measure)

	generation int
	final      bool // a final GrowRanked has run: the sketches are a generation behind
}

// resample is one of the B maintained resamples. Each owns its rng
// stream (one state, held as source and as *rand.Rand), its
// per-generation sketches and a Fenwick tree over its part sizes, so
// growing it touches no state shared with the other resamples (beyond
// read-only delta data and the atomic cost counters) — the property the
// parallel Grow relies on.
type resample struct {
	src      *stats.PCG // the stream itself: a generation's draws from Δs, a block per call
	rng      *rand.Rand // rand.New(src): the binomial resize, sketch shuffles, weighted picks
	state    mr.State
	parts    []*sketch.Part  // parts[k] = b_Δs(k+1)
	partTree stats.Fenwick   // Fenwick over parts[k].Size(), kept in lockstep
	caches   []*sketch.Cache // caches[k] = this resample's sketch(Δs_(k+1))
}

// growScratch is the per-worker scratch state of a Grow pass: reusable
// buffers for a generation's collected deletes and adds, so the
// per-resample-per-generation `make` churn disappears. A resample's
// draws from the new generation get a buffer per lane of the group:
// they are folded only once the whole group has drawn, and read again
// after that to build the resample's new part. Under a ranking the
// draws are also counted by rank, and a resample's counts are folded
// before the next one draws.
type growScratch struct {
	dels   pool.Floats
	adds   pool.Floats
	fills  [growLanes]pool.Floats
	draws  [growLanes][]float64
	states [growLanes]mr.State
	counts []uint32 // per distinct value of Δs; zero between resamples
}

// Config configures a Maintainer.
type Config struct {
	Reducer mr.IncrementalReducer
	B       int              // number of bootstrap resamples
	C       float64          // sketch constant (sketch.DefaultC if 0)
	Seed    uint64           // PCG seed
	Metrics *simcost.Metrics // optional cost accounting
	Key     string           // reduce key passed to Initialize
	// Parallelism is the worker-pool size Grow shards the B resamples
	// across: 0 (or negative) means runtime.GOMAXPROCS, 1 forces the
	// sequential path — the same convention as core.Options.Parallelism.
	// Results are identical at any value because every resample owns a
	// deterministic rng stream.
	Parallelism int
}

// New creates an empty Maintainer; call Grow with the initial sample
// (the paper treats the first sample as Δs₁ added to an empty set).
func New(cfg Config) (*Maintainer, error) {
	if cfg.Reducer == nil {
		return nil, errors.New("delta: Config.Reducer is required")
	}
	if cfg.B < 2 {
		return nil, fmt.Errorf("delta: need B ≥ 2, got %d", cfg.B)
	}
	c := cfg.C
	if c <= 0 {
		c = sketch.DefaultC
	}
	return &Maintainer{
		red:     cfg.Reducer,
		b:       cfg.B,
		c:       c,
		par:     pool.Workers(cfg.Parallelism),
		seed:    cfg.Seed,
		metrics: cfg.Metrics,
		key:     cfg.Key,
	}, nil
}

// B returns the number of maintained resamples.
func (m *Maintainer) B() int { return m.b }

// N returns the current sample size.
func (m *Maintainer) N() int { return m.n }

// Generation returns how many Grow calls have been applied.
func (m *Maintainer) Generation() int { return m.generation }

// Rebuilds reports how many times a state had to be rebuilt from scratch
// because its reducer does not support Remove.
func (m *Maintainer) Rebuilds() int { return int(m.rebuilds.Load()) }

// Updates reports the total number of per-item state operations (adds,
// removes, rebuild re-adds) performed so far — the work that delta
// maintenance saves relative to recomputing every resample from scratch
// (§4, measured in Fig. 10). It is also charged to Metrics as
// RecordsReduced so modeled job times include resampling CPU.
func (m *Maintainer) Updates() int64 { return m.updates.Load() }

// charge records n state operations.
func (m *Maintainer) charge(n int64) {
	m.updates.Add(n)
	if m.metrics != nil {
		m.metrics.RecordsReduced.Add(n)
	}
}

// Grow applies one iteration: the sample becomes s ∪ deltaSample and all
// B resamples (and their states) are updated in place per §4.1, sharded
// across the configured worker pool in groups of up to growLanes. One
// sort of Δs (mr.Rank) serves every resample of a reducer that takes
// its batches in any order.
func (m *Maintainer) Grow(deltaSample []float64) error {
	return m.GrowRanked(deltaSample, mr.Rank(m.red, deltaSample), false)
}

// GrowRanked is Grow for a caller that ranked Δs itself — SSABE, whose
// replicates grow over the same pilot segments and share one ranking of
// each. rk must be mr.Rank of deltaSample for this maintainer's reducer,
// or nil, which folds the draws in draw order (it does not rank here);
// either way the states end bit-identical to Grow's. It is only read,
// so one ranking may serve maintainers growing concurrently.
//
// final marks a maintainer that will not grow again — SSABE's throwaway
// ones, read once at their last curve point. The states take the
// iteration exactly as under Grow (same draws, same arithmetic, same
// charge), but the new generation's part and cache and the
// end-of-iteration reshuffles, which only prepare the next Grow, are
// not built. Afterwards Results, CV and Updates stand; a further grow
// returns an error and ResampleSizes no longer counts the last
// generation.
func (m *Maintainer) GrowRanked(deltaSample []float64, rk *mr.Ranking, final bool) error {
	if m.final {
		return errors.New("delta: Grow after a final grow")
	}
	if len(deltaSample) == 0 {
		return errors.New("delta: empty delta sample")
	}
	if rk != nil && len(rk.Of) != len(deltaSample) {
		return fmt.Errorf("delta: ranking of %d values for a delta sample of %d", len(rk.Of), len(deltaSample))
	}
	// Parts and sketch caches retain Δs; a final generation builds neither.
	ds := deltaSample
	if !final {
		ds = append([]float64(nil), deltaSample...)
	}
	nPrime := m.n + len(ds)

	first := m.n == 0
	if first {
		m.resamples = make([]*resample, m.b)
		for i := range m.resamples {
			src := stats.SplitPCG(m.seed, seed2Base, i)
			m.resamples[i] = &resample{src: src, rng: rand.New(src)}
		}
	}
	// Full groups feed the lane kernels, but never at the price of a
	// longer pass: a group is no larger than the ceil(B/workers) resamples
	// the busiest worker carries anyway (B = 19 at Parallelism 8: groups
	// of 3, not 4).
	group := min(growLanes, (m.b+m.par-1)/m.par)
	groups := (m.b + group - 1) / group
	err := pool.ForEachWorker(groups, m.par, func() func(int) error {
		scratch := &growScratch{}
		if rk != nil {
			scratch.counts = make([]uint32, len(rk.Distinct))
		}
		return func(g int) error {
			lo := g * group
			hi := min(lo+group, m.b)
			var err error
			if first {
				err = m.initGroup(m.resamples[lo:hi], ds, rk, scratch, final)
			} else {
				err = m.growGroup(m.resamples[lo:hi], nPrime, ds, rk, scratch, final)
			}
			if err != nil {
				return fmt.Errorf("delta: resamples %d-%d: %w", lo, hi-1, err)
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	m.genTree.Append(int64(len(ds)))
	m.n = nPrime
	m.generation++
	m.final = final
	return nil
}

// initGroup builds a group's resamples for the first iteration: each is
// n′ items drawn with replacement from Δs₁, which is memory-resident
// right now — no disk charge (sketches are kept for *future*
// iterations, when Δs₁ has been spilled). Initialize takes a resample's
// items whole, so there is nothing to fold across the group.
//
//earl:hotpath
func (m *Maintainer) initGroup(rs []*resample, ds []float64, rk *mr.Ranking, scratch *growScratch, final bool) error {
	for _, r := range rs {
		items := drawDelta(r.src, ds, rk, scratch.counts, scratch.adds.Take(len(ds)), len(ds))
		var st mr.State
		var err error
		if rk != nil {
			st, err = rk.Initialize(m.key, scratch.counts)
		} else {
			st, err = m.red.Initialize(m.key, items)
		}
		if err != nil {
			return fmt.Errorf("initialize: %w", err)
		}
		m.charge(int64(len(items)))
		r.state = st
		if final {
			continue
		}
		if err := m.endIteration(r, items, ds); err != nil {
			return err
		}
	}
	return nil
}

// growGroup applies one §4.1 maintenance step to a group of resamples.
// Per resample the rng draw sequence is identical item for item to the
// historical one-Update-per-item implementation — the binomial resize,
// its deletes or adds, the draws from Δs, then the new part and cache —
// and so is the order its state sees values in; only the *state*
// application is batched: deletes and adds in one interface call each,
// and the Δs draws of the whole group in one mr.UpdateLanes between the
// two per-resample passes. Fixed-seed results stay bit-identical. Under
// a ranking a resample's draws reach its state at once and ascending —
// the reducer has declared that order leaves no trace.
//
//earl:hotpath
func (m *Maintainer) growGroup(rs []*resample, nPrime int, ds []float64, rk *mr.Ranking, scratch *growScratch, final bool) error {
	draws, states := scratch.draws[:len(rs)], scratch.states[:len(rs)]
	for k, r := range rs {
		keep, err := m.resizeResample(r, nPrime, scratch)
		if err != nil {
			return err
		}
		// Fill to n′ with draws from Δs (the new generation) — memory-
		// resident this iteration, so drawn directly.
		fill := nPrime - keep
		draws[k] = drawDelta(r.src, ds, rk, scratch.counts, scratch.fills[k].Take(fill), fill)
		states[k] = r.state
		if rk != nil {
			if states[k], err = rk.Update(r.state, scratch.counts); err != nil {
				return err
			}
		}
	}
	if rk == nil {
		if err := mr.UpdateLanes(m.red, states, draws); err != nil {
			return err
		}
	}
	for k, r := range rs {
		r.state = states[k]
		m.charge(int64(len(draws[k])))
		if final {
			continue
		}
		if err := m.endIteration(r, draws[k], ds); err != nil {
			return err
		}
	}
	return nil
}

// drawDelta appends n draws from Δs, with replacement and in draw
// order, to items; under a ranking it also counts each draw by rank, for
// the reducer to take as the same multiset, sorted. The stream advances
// exactly as n calls of rand.New(src).IntN(len(ds)) would, either way;
// the indices come a block at a time so the generator's state stays in
// registers and the gather is a loop of loads.
//
//earl:hotpath
func drawDelta(src *stats.PCG, ds []float64, rk *mr.Ranking, counts []uint32, items []float64, n int) []float64 {
	var idx [stats.IndexBlock]uint32
	for n > 0 {
		block := idx[:min(n, len(idx))]
		src.Indices(block, len(ds))
		if rk == nil {
			for _, p := range block {
				items = append(items, ds[p])
			}
		} else {
			for _, p := range block {
				items = append(items, ds[p])
				counts[rk.Of[p]]++
			}
		}
		n -= len(block)
	}
	return items
}

// endIteration closes a resample's generation: its new part over the
// items it drew from Δs, its cache over Δs for future random adds, and
// the end-of-iteration sketch bookkeeping. Note the cost-model
// consequence of per-resample caches: each gets its initial c·√|Δs|
// prefetch free (Δs is memory-resident this iteration for every
// resample alike), so the charged refills of the old one-shared-cache
// layout largely disappear — the modeled disk cost of the optimized
// path drops accordingly.
func (m *Maintainer) endIteration(r *resample, items, ds []float64) error {
	r.parts = append(r.parts, sketch.NewPart(items, m.c, r.rng, m.metrics))
	r.partTree.Append(int64(len(items)))
	cache, err := sketch.NewCache(ds, m.c, r.rng, m.metrics)
	if err != nil {
		return err
	}
	r.caches = append(r.caches, cache)
	for _, p := range r.parts {
		p.EndIteration()
	}
	return nil
}

// resizeResample draws how many of the resample's n′ items are retained
// from the old sample (Eq. 2) and deletes or adds old items to match,
// applying them to the state as it goes. It returns the retained count.
//
//earl:hotpath
func (m *Maintainer) resizeResample(r *resample, nPrime int, scratch *growScratch) (int, error) {
	keep, err := RetainedSize(r.rng, m.n, nPrime)
	if err != nil {
		return 0, err
	}
	switch {
	case keep < m.n:
		// Randomly delete (n − keep) items from the old parts, each part
		// chosen with probability proportional to its size (a uniform
		// deletion over the whole resample). Values are collected and
		// removed from the user state in one batch.
		dels := scratch.dels.Take(m.n - keep)
		for d := 0; d < m.n-keep; d++ {
			pi, p := pickPartWeighted(r)
			if p == nil {
				break
			}
			v, err := p.DeleteRandom()
			if err != nil {
				return 0, err
			}
			r.partTree.Add(pi, -1)
			dels = append(dels, v)
		}
		if err := m.removeFromState(r, dels); err != nil {
			return 0, err
		}
		m.charge(int64(len(dels)))
	case keep > m.n:
		// Add (keep − n) items drawn randomly from the old sample s:
		// pick a generation weighted by size, draw from this resample's
		// cache over it. Values are folded into the user state in one
		// batch.
		adds := scratch.adds.Take(keep - m.n)
		for a := 0; a < keep-m.n; a++ {
			k := m.pickGenWeighted(r.rng)
			v := r.caches[k].Next()
			r.parts[k].Add(v)
			r.partTree.Add(k, 1)
			adds = append(adds, v)
		}
		st, err := mr.UpdateAll(m.red, r.state, adds)
		if err != nil {
			return 0, err
		}
		r.state = st
		m.charge(int64(len(adds)))
	}
	return keep, nil
}

// pickPartWeighted picks one of r's non-empty parts with probability
// proportional to its size: one rng draw mapped through the part-size
// Fenwick tree — the same cumulative-width pick a linear scan computes
// (so fixed-seed draws are unchanged), in O(log parts), and empty parts
// (zero width) are genuinely never returned.
func pickPartWeighted(r *resample) (int, *sketch.Part) {
	total := r.partTree.Total()
	if total == 0 {
		return -1, nil
	}
	i := r.partTree.Pick(int64(r.rng.IntN(int(total))))
	return i, r.parts[i]
}

// pickGenWeighted picks a generation index with probability proportional
// to |Δs_k| — a uniform draw over the old sample s, via the generation
// Fenwick tree.
func (m *Maintainer) pickGenWeighted(rng *rand.Rand) int {
	return m.genTree.Pick(int64(rng.IntN(int(m.genTree.Total()))))
}

// removeFromState removes a batch of values from a resample's state —
// one mr.BatchRemovableState call when supported, a per-value Remove
// loop otherwise — rebuilding the state from the resample's surviving
// items when the state cannot remove at all. The rebuild is the slow
// path the paper's design avoids for moment-like statistics; batching
// means one rebuild per generation (not one per deleted item), charged
// as the full re-read it implies.
func (m *Maintainer) removeFromState(r *resample, vs []float64) error {
	if len(vs) == 0 {
		return nil
	}
	handled, err := mr.RemoveValues(r.state, vs)
	if err != nil {
		return err
	}
	if handled {
		return nil
	}
	m.rebuilds.Add(1)
	var all []float64
	for _, p := range r.parts {
		all = append(all, p.Items()...) // Items() charges the disk read
	}
	st, err := m.red.Initialize(m.key, all)
	if err != nil {
		return err
	}
	m.charge(int64(len(all)))
	r.state = st
	return nil
}

// Results finalizes every resample state and returns the B values of the
// statistic — the result distribution handed to the accuracy estimation
// stage.
func (m *Maintainer) Results() ([]float64, error) {
	if m.n == 0 {
		return nil, errors.New("delta: no sample yet")
	}
	out := make([]float64, len(m.resamples))
	for i, r := range m.resamples {
		v, err := m.red.Finalize(r.state)
		if err != nil {
			return nil, fmt.Errorf("delta: finalize resample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// CV finalizes all resamples and returns the coefficient of variation of
// the result distribution — EARL's error measure.
func (m *Maintainer) CV() (float64, error) {
	vals, err := m.Results()
	if err != nil {
		return 0, err
	}
	return stats.CV(vals)
}

// ResampleSizes returns each resample's current item count (each should
// equal N); exposed for invariant tests.
func (m *Maintainer) ResampleSizes() []int {
	out := make([]int, len(m.resamples))
	for i, r := range m.resamples {
		n := 0
		for _, p := range r.parts {
			n += p.Size()
		}
		out[i] = n
	}
	return out
}
