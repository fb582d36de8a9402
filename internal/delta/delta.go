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
// at any parallelism level. A resample's stream depends on neither the
// reducer nor B, so one Maintainer may fold several statistics' states
// from the same resamples (New's more, SSABE's phase 2): each resample's
// rng work is done once, and each statistic reads the first B of them
// that it would have held alone.
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

// Maintainer owns B bootstrap resamples of a growing sample and, per
// resample, the user-job state of every statistic folded from it,
// applying inter-iteration delta maintenance on each Grow call. It is
// the engine behind EARL's cheap sample-size expansion.
//
// Most maintainers fold one statistic. SSABE's phase 2 folds every
// statistic of a query from one maintainer: each statistic s reads the
// first B_s resamples, the maintainer holds max B_s, and resample i's
// rng work — the binomial resize, its deletes and cache adds, the Δs
// draws, the new part and cache — is done once for all the statistics
// with i < B_s. Each statistic's states end exactly as they would in a
// maintainer of its own with the same seed, since a resample's stream
// depends on neither the reducer nor B; and each is charged the state
// operations and sketch I/O its own maintainer would have been.
type Maintainer struct {
	stats   []stat
	b       int // resamples held: the largest statistic's B
	c       float64
	par     int
	seed    uint64
	metrics *simcost.Metrics
	// ranker ranks a Grow's Δs: the first statistic whose reducer is an
	// mr.MultisetReducer, or nil — mr.Rank then ranks nothing.
	ranker mr.IncrementalReducer

	n int
	// genTree holds |Δs_k| per generation for O(log gens) weighted picks.
	// The Δs_k data itself lives on in the per-resample sketch caches,
	// which are the draw path's actual consumers.
	genTree   stats.Fenwick
	resamples []*resample
	rebuilds  atomic.Int64 // states rebuilt because Remove was unsupported
	updates   atomic.Int64 // state add/remove operations performed (work measure)

	generation int
	final      bool // a final GrowRanked has run: the sketches are a generation behind
}

// Stat is one statistic a Maintainer folds its resamples into: the
// reducer, the reduce key its states are initialized with, and B, how
// many of the maintained resamples — the first B — it reads.
type Stat struct {
	Reducer mr.IncrementalReducer
	Key     string
	B       int
}

// stat is a Stat as the maintainer folds it.
type stat struct {
	red     mr.IncrementalReducer
	counted mr.MultisetReducer // red, when it takes ranked batches as counts
	key     string
	b       int
}

// StatError is a Grow failure in one statistic's fold: Stat indexes the
// maintainer's statistics, Config's first. It reads as the error itself.
type StatError struct {
	Stat int
	Err  error
}

func (e *StatError) Error() string { return e.Err.Error() }
func (e *StatError) Unwrap() error { return e.Err }

// resample is one of the maintained resamples. Each owns its rng stream
// (one state, held as source and as *rand.Rand), its per-generation
// sketches and a Fenwick tree over its part sizes, so growing it touches
// no state shared with the other resamples (beyond read-only delta data
// and the atomic cost counters) — the property the parallel Grow relies
// on.
type resample struct {
	src      *stats.PCG      // the stream itself: a generation's draws from Δs, a block per call
	rng      *rand.Rand      // rand.New(src): the binomial resize, sketch shuffles, weighted picks
	states   []mr.State      // states[s]: statistic s's state, for each s that reads this resample
	readers  int64           // how many statistics read this resample
	parts    []*sketch.Part  // parts[k] = b_Δs(k+1)
	partTree stats.Fenwick   // Fenwick over parts[k].Size(), kept in lockstep
	caches   []*sketch.Cache // caches[k] = this resample's sketch(Δs_(k+1))
	// io collects the sketch I/O of the resample's parts and caches until
	// chargeIO moves it to the cost metrics, once per reader.
	io simcost.Metrics
}

// growScratch is the per-worker scratch state of a Grow pass: reusable
// buffers for a generation's collected deletes and adds, so the
// per-resample-per-generation `make` churn disappears. A resample's
// draws from the new generation get a buffer per lane of the group:
// they are folded only once the whole group has drawn, and read again
// after that to build the resample's new part. Under a ranking the
// draws are also counted by rank, and a resample's counts are folded
// into every counted statistic before the next one draws.
type growScratch struct {
	dels   pool.Floats
	adds   pool.Floats
	fills  [growLanes]pool.Floats
	draws  [growLanes][]float64
	states [growLanes]mr.State
	counts []uint32 // per distinct value of Δs; zero between resamples
}

// Config configures a Maintainer. Reducer, B and Key are its first
// statistic's; New's more adds the others.
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
// (the paper treats the first sample as Δs₁ added to an empty set). It
// folds cfg's statistic — Reducer, Key, B — and every statistic of
// more, which share its resamples: statistic 0 is cfg's, statistic s
// is more[s−1].
func New(cfg Config, more ...Stat) (*Maintainer, error) {
	c := cfg.C
	if c <= 0 {
		c = sketch.DefaultC
	}
	m := &Maintainer{
		c:       c,
		par:     pool.Workers(cfg.Parallelism),
		seed:    cfg.Seed,
		metrics: cfg.Metrics,
	}
	for _, st := range append([]Stat{{Reducer: cfg.Reducer, Key: cfg.Key, B: cfg.B}}, more...) {
		if st.Reducer == nil {
			return nil, errors.New("delta: Config.Reducer is required")
		}
		if st.B < 2 {
			return nil, fmt.Errorf("delta: need B ≥ 2, got %d", st.B)
		}
		counted, _ := st.Reducer.(mr.MultisetReducer)
		if counted != nil && m.ranker == nil {
			m.ranker = st.Reducer
		}
		m.stats = append(m.stats, stat{red: st.Reducer, counted: counted, key: st.Key, b: st.B})
		m.b = max(m.b, st.B)
	}
	return m, nil
}

// B returns the number of maintained resamples: the largest statistic's.
func (m *Maintainer) B() int { return m.b }

// N returns the current sample size.
func (m *Maintainer) N() int { return m.n }

// Generation returns how many Grow calls have been applied.
func (m *Maintainer) Generation() int { return m.generation }

// Rebuilds reports how many times a state had to be rebuilt from scratch
// because its reducer does not support Remove.
func (m *Maintainer) Rebuilds() int { return int(m.rebuilds.Load()) }

// Updates reports the total number of per-item state operations (adds,
// removes, rebuild re-adds) performed so far, over every statistic —
// the work that delta maintenance saves relative to recomputing every
// resample from scratch (§4, measured in Fig. 10). It is also charged
// to Metrics as RecordsReduced so modeled job times include resampling
// CPU.
func (m *Maintainer) Updates() int64 { return m.updates.Load() }

// charge records n state operations.
func (m *Maintainer) charge(n int64) {
	m.updates.Add(n)
	if m.metrics != nil {
		m.metrics.RecordsReduced.Add(n)
	}
}

// chargeIO moves the sketch I/O r has collected to the cost metrics,
// times times over — once per statistic reading r, whose own maintainer
// would have done that I/O itself.
func (m *Maintainer) chargeIO(r *resample, times int64) {
	seeks, read, written := r.io.DiskSeeks.Swap(0), r.io.BytesRead.Swap(0), r.io.BytesWritten.Swap(0)
	if m.metrics == nil || seeks == 0 { // every sketch charge is a seek
		return
	}
	m.metrics.DiskSeeks.Add(times * seeks)
	m.metrics.BytesRead.Add(times * read)
	m.metrics.BytesWritten.Add(times * written)
}

// Grow applies one iteration: the sample becomes s ∪ deltaSample and all
// the resamples (and their states) are updated in place per §4.1,
// sharded across the configured worker pool in groups of up to
// growLanes. One sort of Δs (mr.Rank) serves every resample of every
// statistic whose reducer takes its batches in any order.
func (m *Maintainer) Grow(deltaSample []float64) error {
	return m.GrowRanked(deltaSample, mr.Rank(m.ranker, deltaSample), false)
}

// GrowRanked is Grow for a caller that ranked Δs itself — SSABE, whose
// replicates grow over the same pilot segments and share one ranking of
// each. rk must be mr.Rank of deltaSample, or nil, which folds the
// draws in draw order (it does not rank here); either way the states
// end bit-identical to Grow's. It is only read, so one ranking may
// serve maintainers growing concurrently.
//
// final marks a maintainer that will not grow again — SSABE's throwaway
// ones, read once at their last curve point. The states take the
// iteration exactly as under Grow (same draws, same arithmetic, same
// charge), but the new generation's part and cache and the
// end-of-iteration reshuffles, which only prepare the next Grow, are
// not built. Afterwards Results, CV and Updates stand; a further grow
// returns an error and ResampleSizes no longer counts the last
// generation.
//
// A statistic's fold failing fails the grow with a *StatError.
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
			r := &resample{src: src, rng: rand.New(src), states: make([]mr.State, len(m.stats))}
			for _, st := range m.stats {
				if i < st.b {
					r.readers++
				}
			}
			m.resamples[i] = r
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
				err = m.initGroup(lo, m.resamples[lo:hi], ds, rk, scratch, final)
			} else {
				err = m.growGroup(lo, m.resamples[lo:hi], nPrime, ds, rk, scratch, final)
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
// items whole, so there is nothing to fold across the group. lo is the
// index of the group's first resample.
//
//earl:hotpath
func (m *Maintainer) initGroup(lo int, rs []*resample, ds []float64, rk *mr.Ranking, scratch *growScratch, final bool) error {
	for k, r := range rs {
		items := drawDelta(r.src, ds, rk, scratch.counts, scratch.adds.Take(len(ds)), len(ds))
		err := m.initStates(lo+k, r, items, rk, scratch.counts)
		clear(scratch.counts)
		if err != nil {
			return err
		}
		m.charge(r.readers * int64(len(items)))
		if !final {
			if err := m.endIteration(r, items, ds); err != nil {
				return err
			}
		}
		m.chargeIO(r, r.readers)
	}
	return nil
}

// initStates initializes every reading statistic's state of resample
// i from its first draws: items in draw order, and their counts by rank
// under a ranking.
func (m *Maintainer) initStates(i int, r *resample, items []float64, rk *mr.Ranking, counts []uint32) error {
	for s, st := range m.stats {
		if i >= st.b {
			continue
		}
		var err error
		if rk != nil && st.counted != nil {
			r.states[s], err = st.counted.InitializeCounted(st.key, rk.Distinct, counts)
		} else {
			r.states[s], err = st.red.Initialize(st.key, items)
		}
		if err != nil {
			return &StatError{Stat: s, Err: fmt.Errorf("initialize: %w", err)}
		}
	}
	return nil
}

// foldCounted folds resample i's draws, counted by rank, into every
// reading statistic that takes counts.
func (m *Maintainer) foldCounted(i int, r *resample, rk *mr.Ranking, counts []uint32) error {
	for s, st := range m.stats {
		if i >= st.b || st.counted == nil {
			continue
		}
		var err error
		if r.states[s], err = st.counted.UpdateCounted(r.states[s], rk.Distinct, counts); err != nil {
			return &StatError{Stat: s, Err: err}
		}
	}
	return nil
}

// growGroup applies one §4.1 maintenance step to a group of resamples.
// Per resample the rng draw sequence is identical item for item to the
// historical one-Update-per-item implementation — the binomial resize,
// its deletes or adds, the draws from Δs, then the new part and cache —
// and so is the order each statistic's state sees values in; only the
// *state* application is batched: deletes and adds in one interface
// call each, and the Δs draws of the whole group in one mr.UpdateLanes
// per statistic between the two per-resample passes. Fixed-seed results
// stay bit-identical. Under a ranking a resample's draws reach a counted
// statistic's state at once and ascending — the reducer has declared
// that order leaves no trace. The rng work is done once per resample,
// whatever number of statistics read it.
//
//earl:hotpath
func (m *Maintainer) growGroup(lo int, rs []*resample, nPrime int, ds []float64, rk *mr.Ranking, scratch *growScratch, final bool) error {
	draws := scratch.draws[:len(rs)]
	for k, r := range rs {
		keep, err := m.resizeResample(lo+k, r, nPrime, scratch)
		if err != nil {
			return err
		}
		// Fill to n′ with draws from Δs (the new generation) — memory-
		// resident this iteration, so drawn directly.
		fill := nPrime - keep
		draws[k] = drawDelta(r.src, ds, rk, scratch.counts, scratch.fills[k].Take(fill), fill)
		if rk == nil {
			continue
		}
		err = m.foldCounted(lo+k, r, rk, scratch.counts)
		clear(scratch.counts)
		if err != nil {
			return err
		}
	}
	for s, st := range m.stats {
		if rk != nil && st.counted != nil {
			continue
		}
		// The statistic reads a prefix of the group.
		n := min(len(rs), st.b-lo)
		if n <= 0 {
			continue
		}
		states := scratch.states[:n]
		for k := range states {
			states[k] = rs[k].states[s]
		}
		if err := mr.UpdateLanes(st.red, states, draws[:n]); err != nil {
			return &StatError{Stat: s, Err: err}
		}
		for k, state := range states {
			rs[k].states[s] = state
		}
	}
	for k, r := range rs {
		m.charge(r.readers * int64(len(draws[k])))
		if !final {
			if err := m.endIteration(r, draws[k], ds); err != nil {
				return err
			}
		}
		m.chargeIO(r, r.readers)
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
	r.parts = append(r.parts, sketch.NewPart(items, m.c, r.rng, &r.io))
	r.partTree.Append(int64(len(items)))
	cache, err := sketch.NewCache(ds, m.c, r.rng, &r.io)
	if err != nil {
		return err
	}
	r.caches = append(r.caches, cache)
	for _, p := range r.parts {
		p.EndIteration()
	}
	return nil
}

// resizeResample draws how many of resample i's n′ items are retained
// from the old sample (Eq. 2) and deletes or adds old items to match,
// applying them to every reading statistic's state as it goes. It
// returns the retained count.
//
//earl:hotpath
func (m *Maintainer) resizeResample(i int, r *resample, nPrime int, scratch *growScratch) (int, error) {
	keep, err := RetainedSize(r.rng, m.n, nPrime)
	if err != nil {
		return 0, err
	}
	switch {
	case keep < m.n:
		// Randomly delete (n − keep) items from the old parts, each part
		// chosen with probability proportional to its size (a uniform
		// deletion over the whole resample). Values are collected and
		// removed from the user states in one batch each.
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
		// The deletes' sketch refreshes are every reader's; a rebuild's
		// re-read is its own statistic's.
		m.chargeIO(r, r.readers)
		for s, st := range m.stats {
			if i >= st.b {
				continue
			}
			if err := m.removeFromState(r, s, dels); err != nil {
				return 0, &StatError{Stat: s, Err: err}
			}
			m.chargeIO(r, 1)
		}
		m.charge(r.readers * int64(len(dels)))
	case keep > m.n:
		// Add (keep − n) items drawn randomly from the old sample s:
		// pick a generation weighted by size, draw from this resample's
		// cache over it. Values are folded into the user states in one
		// batch each.
		adds := scratch.adds.Take(keep - m.n)
		for a := 0; a < keep-m.n; a++ {
			k := m.pickGenWeighted(r.rng)
			v := r.caches[k].Next()
			r.parts[k].Add(v)
			r.partTree.Add(k, 1)
			adds = append(adds, v)
		}
		for s, st := range m.stats {
			if i >= st.b {
				continue
			}
			if r.states[s], err = mr.UpdateAll(st.red, r.states[s], adds); err != nil {
				return 0, &StatError{Stat: s, Err: err}
			}
		}
		m.charge(r.readers * int64(len(adds)))
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

// removeFromState removes a batch of values from statistic s's state
// of r — one mr.BatchRemovableState call when supported, a per-value
// Remove loop otherwise — rebuilding the state from the resample's
// surviving items when the state cannot remove at all. The rebuild is
// the slow path the paper's design avoids for moment-like statistics;
// batching means one rebuild per generation (not one per deleted item),
// charged as the full re-read it implies.
func (m *Maintainer) removeFromState(r *resample, s int, vs []float64) error {
	if len(vs) == 0 {
		return nil
	}
	handled, err := mr.RemoveValues(r.states[s], vs)
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
	st := &m.stats[s]
	state, err := st.red.Initialize(st.key, all)
	if err != nil {
		return err
	}
	m.charge(int64(len(all)))
	r.states[s] = state
	return nil
}

// Results finalizes statistic 0's resample states and returns its B
// values — the result distribution handed to the accuracy estimation
// stage.
func (m *Maintainer) Results() ([]float64, error) { return m.ResultsOf(0) }

// ResultsOf is Results for statistic s: the values of its B_s
// resamples.
func (m *Maintainer) ResultsOf(s int) ([]float64, error) {
	if m.n == 0 {
		return nil, errors.New("delta: no sample yet")
	}
	st := &m.stats[s]
	out := make([]float64, st.b)
	for i, r := range m.resamples[:st.b] {
		v, err := st.red.Finalize(r.states[s])
		if err != nil {
			return nil, fmt.Errorf("delta: finalize resample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// CV finalizes statistic 0's resamples and returns the coefficient of
// variation of its result distribution — EARL's error measure.
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
