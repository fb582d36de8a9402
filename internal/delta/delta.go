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
// A generation is built when the next grow reads it: a grow leaves each
// resample's draws from Δs pending, and the next grow first builds their
// part, the cache over Δs and the reshuffles — the same rng calls in the
// same order — so no maintainer builds a generation it never grows past.
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
// batched reducer call each (Remove / Update), and the weighted
// part/generation picks run on Fenwick trees instead of linear
// cumulative scans — same rng-for-rng pick, O(log) instead of O(parts).
// Every state starts empty: the first grow gives each resample an
// empty state (Initialize) per statistic reading it, and every value,
// the first grow's draws included, reaches a state through Update,
// UpdateLanes or UpdateCounted — so the first grow and every later one
// fold alike. A worker takes resamples a few at a time (growLanes) and
// folds the group's draws from the new generation — the bulk of a
// Grow — in one mr.UpdateLanes call, so reducers whose update is a
// latency-bound arithmetic chain step the group's states side by side.
// For reducers whose state is a function of a batch's multiset
// (mr.MultisetReducer: the quantiles) Grow sorts Δs once instead —
// mr.Rank — and every resample, which draws from Δs by position, counts
// its draws by rank and hands its state the counts: one increment per
// item where each state used to sort its own batch. A caller growing
// several maintainers over the same Δs ranks it once and hands each the
// ranking (GrowRanked).
//
// When every Δs is cut from one source ranked once — SSABE's pilot — the
// caller may name the source's distinct values as the maintainer's
// universe (Config.Universe). Each resample then keeps one count per
// universe value instead of a state per counted statistic: a draw from
// Δs, and a resize's delete or add, move one count, and ResultsOf
// finalizes each counted statistic from the counts
// (mr.MultisetReducer.FinalizeCounted). Results, work counts and
// charged cost are the ones the states would give.
package delta

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
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
// rng work — the last generation's part and cache, the binomial resize,
// its deletes and cache adds, the Δs draws — is done once for all the
// statistics with i < B_s. Each statistic's states end exactly as they
// would in a maintainer of its own with the same seed, since a
// resample's stream depends on neither the reducer nor B; and each is
// charged the state operations and sketch I/O its own maintainer would
// have been.
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
	// universe is Config.Universe when some statistic takes counts, nil
	// otherwise: every resample then holds counts over it.
	universe []float64

	n int
	// genTree holds |Δs_k| per generation for O(log gens) weighted picks.
	// The Δs_k data itself lives on in the per-resample sketch caches,
	// which are the draw path's actual consumers.
	genTree   stats.Fenwick
	resamples []*resample
	updates   atomic.Int64 // state add/remove operations performed (work measure)

	newest []float64 // a copy of the last grow's Δs, which the next grow builds caches over
	stock  *Stock    // where Release parks the resamples; nil for a maintainer made by New
}

// Stock parks released maintainers' resamples, each maintainer's as one
// unit — the buffers of its parts, caches and pending draws — for the
// next maintainer it makes to grow its generations into. A unit is held
// only weakly (pool.Spares): the next collection reclaims what no
// maintainer claimed. A Stock is safe for concurrent use.
type Stock struct{ units pool.Spares[*resample] }

// New is delta.New for a maintainer whose first grow builds its
// resamples on a parked unit, where there is one, and whose Release
// parks them back.
func (st *Stock) New(cfg Config, more ...Stat) (*Maintainer, error) {
	m, err := New(cfg, more...)
	if err != nil {
		return nil, err
	}
	m.stock = st
	return m, nil
}

// Release parks m's resamples in the Stock m was made from; m must not
// be used afterwards. It does nothing for a maintainer made by New.
func (m *Maintainer) Release() {
	if m.stock == nil {
		return
	}
	for _, r := range m.resamples {
		// What it was lent becomes its spares; unlent spares are dropped.
		clear(r.bufs[r.lent:])
		r.bufs, r.lent = r.bufs[:r.lent], 0
		clear(r.parts)
		clear(r.caches)
		r.parts, r.caches, r.drawn = r.parts[:0], r.caches[:0], nil
		r.partTree.Reset()
		r.io.Reset()
	}
	m.stock.units.Put(m.resamples)
	m.resamples = nil
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
	tallied bool               // counted, under a universe: read from the resample's counts, no state kept
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
// (one state, held as a PCG and as *rand.Rand), its per-generation
// sketches and a Fenwick tree over its part sizes, so growing it touches
// no state shared with the other resamples (beyond read-only delta data
// and the atomic cost counters) — the property the parallel Grow relies
// on.
type resample struct {
	src      *stats.PCG      // the stream itself: Δs draws, sketch shuffles and adds, weighted picks
	rng      *rand.Rand      // rand.New(src): the binomial resize
	states   []mr.State      // states[s]: statistic s's state, for each untallied s that reads this resample
	counts   []uint32        // under a universe: the resample's items per universe value
	readers  int64           // how many statistics read this resample
	parts    []*sketch.Part  // parts[k] = b_Δs(k+1)
	partTree stats.Fenwick   // Fenwick over parts[k].Size(), kept in lockstep
	caches   []*sketch.Cache // caches[k] = this resample's sketch(Δs_(k+1))
	drawn    []float64       // the newest generation's draws, pending: the next grow builds their part
	bufs     [][]float64     // [:lent] lent to its parts, caches and draws; [lent:] spares
	lent     int
	// io collects the sketch I/O of the resample's parts and caches until
	// chargeIO moves it to the cost metrics, once per reader.
	io simcost.Metrics
}

// growScratch is the per-worker scratch state of a Grow pass: reusable
// buffers for a generation's collected deletes and adds, so the
// per-resample-per-generation `make` churn disappears, and the group's
// draws from the new generation, which are folded only once the whole
// group has drawn. Under a ranking with no universe the draws are also
// counted by rank here, and a resample's counts are folded into every
// counted statistic before the next one draws.
type growScratch struct {
	dels   pool.Floats
	adds   pool.Floats
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
	// Universe, if set, is every value any Δs will hold, ascending and
	// distinct — the Distinct of a ranking of the whole source the Δs
	// are cut from (SSABE's pilot). Each resample then keeps one count
	// per universe value, shared by every statistic that takes counts
	// (mr.MultisetReducer), instead of a state per statistic: a draw, a
	// resize's delete and a resize's add each move one count, and
	// ResultsOf finalizes from the counts (FinalizeCounted). Results,
	// Updates and the charged cost are what they are without it. Every
	// grow must then be ranked over the universe: GrowRanked refuses a
	// ranking whose Distinct is not the universe, and Grow one that does
	// not hold every universe value. Ignored when no statistic takes
	// counts.
	Universe []float64
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
		m.stats = append(m.stats, stat{red: st.Reducer, counted: counted, tallied: counted != nil && cfg.Universe != nil,
			key: st.Key, b: st.B})
		m.b = max(m.b, st.B)
	}
	if m.ranker != nil {
		m.universe = cfg.Universe
	}
	return m, nil
}

// B returns the number of maintained resamples: the largest statistic's.
func (m *Maintainer) B() int { return m.b }

// N returns the current sample size.
func (m *Maintainer) N() int { return m.n }

// Updates reports the total number of per-item state operations (adds
// and removes) performed so far, over every statistic — the work that
// delta maintenance saves relative to recomputing every resample from
// scratch (§4, measured in Fig. 10). It is also charged to Metrics as
// RecordsReduced so modeled job times include resampling CPU.
func (m *Maintainer) Updates() int64 { return m.updates.Load() }

// charge records n state operations.
func (m *Maintainer) charge(n int64) {
	m.updates.Add(n)
	m.metrics.Charge(simcost.Snapshot{RecordsReduced: n})
}

// chargeIO moves the sketch I/O r has collected to the cost metrics,
// times times over — once per statistic reading r, whose own maintainer
// would have done that I/O itself.
func (m *Maintainer) chargeIO(r *resample, times int64) {
	seeks, read, written := r.io.DiskSeeks.Swap(0), r.io.BytesRead.Swap(0), r.io.BytesWritten.Swap(0)
	m.metrics.Charge(simcost.Snapshot{DiskSeeks: times * seeks, BytesRead: times * read, BytesWritten: times * written})
}

// Grow applies one iteration: the sample becomes s ∪ deltaSample and all
// the resamples (and their states) are updated in place per §4.1,
// sharded across the configured worker pool in groups of up to
// growLanes. One sort of Δs (mr.Rank) serves every resample of every
// statistic whose reducer takes its batches in any order.
func (m *Maintainer) Grow(deltaSample []float64) error {
	return m.GrowRanked(deltaSample, mr.Rank(m.ranker, deltaSample))
}

// GrowRanked is Grow for a caller that ranked Δs itself — SSABE, whose
// replicates grow over the same pilot segments and share one ranking of
// each. rk must be mr.Rank of deltaSample, or nil, which folds the
// draws in draw order (it does not rank here); either way the states
// end bit-identical to Grow's. Under a universe rk is instead required,
// and ranks deltaSample over it: Distinct is the universe and Of[j] the
// index of deltaSample[j] in it. It is only read, so one ranking may
// serve maintainers growing concurrently.
//
// A statistic's fold failing fails the grow with a *StatError.
func (m *Maintainer) GrowRanked(deltaSample []float64, rk *mr.Ranking) error {
	if len(deltaSample) == 0 {
		return errors.New("delta: empty delta sample")
	}
	if rk != nil && len(rk.Of) != len(deltaSample) {
		return fmt.Errorf("delta: ranking of %d values for a delta sample of %d", len(rk.Of), len(deltaSample))
	}
	if m.universe != nil && (rk == nil || !slices.Equal(rk.Distinct, m.universe)) {
		return errors.New("delta: the ranking does not index the maintainer's universe")
	}
	ds := slices.Clone(deltaSample)
	nPrime := m.n + len(ds)

	first := m.n == 0
	if first {
		// A maintainer from a stock builds on a parked unit, where there
		// is one; either way each resample starts its own stream afresh.
		if m.stock != nil {
			m.resamples, _ = m.stock.units.Take(m.b)
		} else {
			m.resamples = make([]*resample, m.b)
		}
		for i, r := range m.resamples {
			if r == nil {
				r = &resample{}
				m.resamples[i] = r
			}
			r.src = stats.SplitPCG(m.seed, seed2Base, i)
			r.rng = rand.New(r.src)
			r.states = make([]mr.State, len(m.stats))
			for s, st := range m.stats {
				if i >= st.b || st.tallied {
					continue
				}
				state, err := st.red.Initialize(st.key)
				if err != nil {
					return fmt.Errorf("delta: resample %d: initialize: %w", i, &StatError{Stat: s, Err: err})
				}
				r.states[s] = state
			}
			if m.universe == nil {
				r.counts = nil
			} else {
				r.counts = slices.Grow(r.counts[:0], len(m.universe))[:len(m.universe)]
				clear(r.counts)
			}
			r.readers = 0
			for _, st := range m.stats {
				if i < st.b {
					r.readers++
				}
			}
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
		if rk != nil && m.universe == nil {
			scratch.counts = make([]uint32, len(rk.Distinct))
		}
		return func(g int) error {
			lo := g * group
			hi := min(lo+group, m.b)
			err := m.growGroup(lo, m.resamples[lo:hi], nPrime, ds, rk, scratch, first)
			switch {
			case err == nil:
				return nil
			case first:
				// The first grow builds the states: its failure is an
				// initialize failure.
				return fmt.Errorf("delta: resamples %d-%d: initialize: %w", lo, hi-1, err)
			default:
				return fmt.Errorf("delta: resamples %d-%d: %w", lo, hi-1, err)
			}
		}
	})
	if err != nil {
		return err
	}
	m.genTree.Append(int64(len(ds)))
	m.n = nPrime
	m.newest = ds
	return nil
}

// buffer lends r an empty buffer with room for n items until m is
// released: the smallest of r's spares with the room, or else a fresh
// sketch.PartBuffer(n, m.c), which only a maintainer with a stock keeps.
func (m *Maintainer) buffer(r *resample, n int) []float64 {
	if m.stock == nil {
		return sketch.PartBuffer(n, m.c)
	}
	best := -1
	for i := r.lent; i < len(r.bufs); i++ {
		if size := cap(r.bufs[i]); size >= n && (best < 0 || size < cap(r.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		best = len(r.bufs)
		r.bufs = append(r.bufs, sketch.PartBuffer(n, m.c))
	}
	r.bufs[r.lent], r.bufs[best] = r.bufs[best], r.bufs[r.lent]
	r.lent++
	return r.bufs[r.lent-1][:0]
}

// growGroup applies one §4.1 maintenance step to a group of resamples
// — on the first iteration, builds them: each is n′ items drawn with
// replacement from Δs₁, which is memory-resident right now, so no disk
// charge (sketches are kept for *future* iterations, when Δs₁ has been
// spilled), folded into the empty states GrowRanked gave it; first only
// skips the generation that does not exist yet. Per resample the rng
// draw sequence is identical item for item to the historical
// one-Update-per-item implementation — the previous generation's part
// and cache, the binomial resize, its deletes or adds, then the draws
// from Δs, which stay pending for the next grow's build — and so is the
// order each statistic's state sees values in; only the *state*
// application is batched: deletes and adds in one interface call each,
// and the Δs draws of the whole group in one mr.UpdateLanes per
// statistic between the two per-resample passes. Fixed-seed results
// stay bit-identical. Under a ranking a resample's draws reach a counted
// statistic's state at once and ascending — the reducer has declared
// that order leaves no trace — and under a universe they are only
// counted. The rng work is done once per resample, whatever number of
// statistics read it. lo is the index of the group's first resample.
//
//earl:hotpath
func (m *Maintainer) growGroup(lo int, rs []*resample, nPrime int, ds []float64, rk *mr.Ranking, scratch *growScratch, first bool) error {
	draws := scratch.draws[:len(rs)]
	for k, r := range rs {
		keep := 0
		if !first {
			if err := m.buildGeneration(r); err != nil {
				return err
			}
			var err error
			if keep, err = m.resizeResample(lo+k, r, nPrime, scratch); err != nil {
				return err
			}
		}
		// Fill to n′ with draws from Δs (the new generation) — memory-
		// resident this iteration, so drawn directly, into the buffer
		// the generation's part will own.
		fill := nPrime - keep
		// Under a universe the draws are counted into the resample's own
		// counts, which are kept; otherwise into the worker's scratch,
		// folded into each counted state and cleared.
		counts := r.counts
		if counts == nil {
			counts = scratch.counts
		}
		r.drawn = drawDelta(r.src, ds, rk, counts, m.buffer(r, fill), fill)
		draws[k] = r.drawn
		if rk == nil || r.counts != nil {
			continue
		}
		err := m.foldCounted(lo+k, r, rk, scratch.counts)
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
		if err := m.foldDraws(s, rs[:n], draws[:n], scratch); err != nil {
			return &StatError{Stat: s, Err: err}
		}
	}
	for _, r := range rs {
		m.charge(r.readers * int64(len(r.drawn)))
		m.chargeIO(r, r.readers)
	}
	return nil
}

// foldDraws folds each resample's draws, in draw order, into its state
// of statistic s, side by side through mr.UpdateLanes.
func (m *Maintainer) foldDraws(s int, rs []*resample, draws [][]float64, scratch *growScratch) error {
	st := &m.stats[s]
	states := scratch.states[:len(rs)]
	for k, r := range rs {
		states[k] = r.states[s]
	}
	if err := mr.UpdateLanes(st.red, states, draws); err != nil {
		return err
	}
	for k, state := range states {
		rs[k].states[s] = state
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

// buildGeneration closes a resample's pending generation when the next
// grow reads it: its new part, which takes over the draws, its cache over
// Δs for future random adds, and the end-of-iteration sketch bookkeeping.
// Note the cost-model consequence of per-resample caches: each gets its
// initial c·√|Δs| prefetch free (Δs was memory-resident for every
// resample alike), so the charged refills of the old one-shared-cache
// layout largely disappear — the modeled disk cost drops accordingly.
func (m *Maintainer) buildGeneration(r *resample) error {
	r.parts = append(r.parts, sketch.NewPart(r.drawn, m.c, r.src, &r.io))
	r.partTree.Append(int64(len(r.drawn)))
	r.drawn = nil
	cache, err := sketch.NewCache(m.newest, m.buffer(r, sketch.Len(m.c, len(m.newest))), m.c, r.src, &r.io)
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
		// The deletes' sketch refreshes are every reader's.
		m.chargeIO(r, r.readers)
		if err := m.recount(r, dels, false); err != nil {
			return 0, err
		}
		for s, st := range m.stats {
			if i >= st.b || st.tallied {
				continue
			}
			if err := st.red.Remove(r.states[s], dels); err != nil {
				return 0, &StatError{Stat: s, Err: err}
			}
		}
		m.charge(r.readers * int64(len(dels)))
	case keep > m.n:
		// Add (keep − n) items drawn randomly from the old sample s:
		// pick a generation weighted by size, draw from this resample's
		// cache over it. Values are folded into the user states in one
		// batch each.
		adds := scratch.adds.Take(keep - m.n)
		for a := 0; a < keep-m.n; a++ {
			k := m.pickGenWeighted(r.src)
			v := r.caches[k].Next()
			r.parts[k].Add(v)
			r.partTree.Add(k, 1)
			adds = append(adds, v)
		}
		if err := m.recount(r, adds, true); err != nil {
			return 0, err
		}
		for s, st := range m.stats {
			if i >= st.b || st.tallied {
				continue
			}
			if r.states[s], err = st.red.Update(r.states[s], adds); err != nil {
				return 0, &StatError{Stat: s, Err: err}
			}
		}
		m.charge(r.readers * int64(len(adds)))
	}
	return keep, nil
}

// recount moves r's count of each value of vs by one — up for a
// resize's adds, down for its deletes — when r keeps counts. Each value
// is found by binary search over the universe: r drew it from a Δs the
// universe holds.
//
//earl:hotpath
func (m *Maintainer) recount(r *resample, vs []float64, up bool) error {
	if r.counts == nil {
		return nil
	}
	for _, v := range vs {
		d, ok := slices.BinarySearch(m.universe, v)
		if !ok || !up && r.counts[d] == 0 {
			return fmt.Errorf("delta: resample holds no %v to move", v)
		}
		if up {
			r.counts[d]++
		} else {
			r.counts[d]--
		}
	}
	return nil
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
	i := r.partTree.Pick(int64(r.src.IntN(int(total))))
	return i, r.parts[i]
}

// pickGenWeighted picks a generation index with probability proportional
// to |Δs_k| — a uniform draw over the old sample s, via the generation
// Fenwick tree.
func (m *Maintainer) pickGenWeighted(rng *stats.PCG) int {
	return m.genTree.Pick(int64(rng.IntN(int(m.genTree.Total()))))
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
		var v float64
		var err error
		if st.tallied {
			v, err = st.counted.FinalizeCounted(m.universe, r.counts, int64(m.n))
		} else {
			v, err = st.red.Finalize(r.states[s])
		}
		if err != nil {
			return nil, fmt.Errorf("delta: finalize resample %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// ResampleSizes returns each resample's current item count (each should
// equal N), its pending draws included; exposed for invariant tests.
func (m *Maintainer) ResampleSizes() []int {
	out := make([]int, len(m.resamples))
	for i, r := range m.resamples {
		n := len(r.drawn)
		for _, p := range r.parts {
			n += p.Size()
		}
		out[i] = n
	}
	return out
}
