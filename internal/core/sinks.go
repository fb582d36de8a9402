package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/stats"
)

// The two Sink implementations of the generic engine: statSink (scalar
// and multi-statistic runs — one resample set per statistic, all fed the
// one shared sample) and groupSink (grouped runs — one resample set per
// group key). A sink is the whole maintained state of a run: the engine
// folds each round into it, a maintained query (internal/live) goes on
// folding refresh draws into the very same one, and both render their
// reports from it.

// statRun is one statistic's maintained state inside a statSink.
type statRun struct {
	job    jobs.Numeric
	maint  resampler
	lastCV float64 // error at the last ErrorEstimate, i.e. after the last fold
}

// statSink maintains one delta-maintained resample set per statistic.
// Every statistic reads the same shared sample (the engine delivers each
// record exactly once), so a k-statistic run costs one sampling/IO pass;
// only the resampling CPU scales with k. The published error is the
// worst statistic's — expansion continues until every statistic meets σ.
//
// Planning is per statistic (its own SSABE B_i and n_i; the run's
// initial target is max(n_i)), but the maintained sample is deliberately
// shared rather than capped per statistic at n_i: statistics whose
// planned n is smaller simply converge early and ride along. Capping
// would save their resampling CPU, but it would leave the statistics
// holding samples at different fractions of the data — and a later
// maintained refresh (internal/live) draws each appended delta once, at
// one fraction, so unequal per-statistic fractions could not stay
// uniform over old ∪ new. Extra resampling CPU is the price of keeping
// every statistic's sample exchangeable with the shared stream.
type statSink struct {
	opts  Options
	stats []*statRun
}

// newStatSink builds the per-statistic maintainers under the engine-wide
// seeding contract: statistic 0 keeps the historical run seed (so
// single-statistic runs stay bit-identical), and further statistics get
// decorrelated streams derived from the statistic index.
func newStatSink(env *Env, jset []jobs.Numeric, plans []aes.Plan, opts Options) (*statSink, error) {
	s := &statSink{opts: opts}
	for i, job := range jset {
		maint, err := newResampler(env, opts, job.Reducer, plans[i].B, opts.Seed+31+1_000_003*uint64(i), job.Name)
		if err != nil {
			return nil, err
		}
		s.stats = append(s.stats, &statRun{job: job, maint: maint, lastCV: math.Inf(1)})
	}
	return s, nil
}

// newResampler builds one resample set of a sink, folding red with b
// resamples from seed under key: §4.1's delta.Maintainer, or the naive
// recompute-everything baseline when opts.DisableDeltaMaintenance is set.
func newResampler(env *Env, opts Options, red mr.IncrementalReducer, b int, seed uint64, key string) (resampler, error) {
	cfg := delta.Config{Reducer: red, B: b, Seed: seed, Metrics: env.Metrics, Key: key, Parallelism: opts.Parallelism}
	if opts.DisableDeltaMaintenance {
		return delta.NewNaive(cfg)
	}
	return delta.New(cfg)
}

// Fold implements Sink: the shared delta, sorted where it lies, feeds
// every statistic's resample set (the maintainers batch-apply the slice
// without retaining it).
//
//earl:hotpath
func (s *statSink) Fold(cols *colscan.Cols) error {
	sort.Float64s(cols.Vals)
	for _, st := range s.stats {
		if err := st.maint.Grow(cols.Vals); err != nil {
			return err
		}
	}
	return nil
}

// Size implements Sink: the shared sample every statistic holds.
func (s *statSink) Size() int64 { return int64(s.stats[0].maint.N()) }

// ErrorEstimate implements Sink: the worst cv across the statistics
// (+Inf on any degenerate distribution, so the loop keeps growing
// rather than mis-terminating).
func (s *statSink) ErrorEstimate(int64) float64 {
	worst := 0.0
	for _, st := range s.stats {
		cv := math.Inf(1)
		if vals, err := st.maint.Results(); err == nil {
			if m, err := stats.CV(vals); err == nil {
				cv = m
			}
		}
		st.lastCV = cv
		if cv > worst {
			worst = cv
		}
	}
	return worst
}

// Result implements Sink: one Report per statistic, in job order. A
// report's CV is the error at the last fold; its Iterations counts the
// run's rounds plus every fold since.
func (s *statSink) Result(r *Retained, _ int) (*PlanResult, error) {
	reps := make([]Report, len(s.stats))
	for i, st := range s.stats {
		vals, err := st.maint.Results()
		if err != nil {
			return nil, fmt.Errorf("core: no results (sample never arrived): %w", err)
		}
		p := float64(st.maint.N()) / float64(r.EstTotal)
		rep, err := FinishReport(st.job, s.opts, vals, st.lastCV, p, r.SelSE)
		if err != nil {
			return nil, err
		}
		rep.B = r.Plans[i].B
		rep.SampleSize = st.maint.N()
		rep.PlannedN = r.Plans[i].N
		rep.Iterations = r.Generations + r.Folds
		rep.EstTotalN = r.EstTotal
		reps[i] = rep
	}
	return &PlanResult{Reports: reps}, nil
}

// seedForKey derives a group's resampling seed from the run seed and the
// key alone — never from the order keys were first observed in, which
// depends on goroutine scheduling. This is what makes grouped runs (and
// their maintained refreshes) reproducible for a fixed seed.
func seedForKey(seed uint64, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return seed + h.Sum64()
}

// minGroupSample is the smallest per-group sample before a group's cv
// is trusted: below it the error is treated as +Inf so the expansion
// loop keeps sampling — in the run and in every later refresh, so a
// brand-new key appearing in appended data with a deceptively tight tiny
// sample still forces expansion instead of being reported converged.
const minGroupSample = 8

// groupSink maintains one resample set per group key (newResampler's),
// opened lazily with key-derived seeds as keys arrive — in the run, and
// for groups that first appear in appended data, with exactly the seed
// the run would have used. The published error is the worst group's
// (groupError), floored at +Inf while any group's sample is below
// minGroupSample. The mutex orders the run's partitions against one
// another while they share nothing but the type; after the run one
// goroutine at a time holds the sink.
type groupSink struct {
	env  *Env
	job  jobs.Numeric
	b    int
	opts Options

	mu     sync.Mutex
	maints map[string]resampler
	// Fold scratch: the per-key value buffers and the sorted-key slice are
	// reused across folds so a long-lived grouped watch does not
	// re-allocate its routing state every refresh.
	groups map[string][]float64
	keys   []string
}

func newGroupSink(env *Env, job jobs.Numeric, b int, opts Options) *groupSink {
	return &groupSink{env: env, job: job, b: b, opts: opts,
		maints: map[string]resampler{}, groups: map[string][]float64{}}
}

// Fold implements Sink: the batch is routed by key and folded into
// per-group resample sets in canonical order (sorted keys, sorted
// deltas), with brand-new keys opened under their key-derived seeds.
//
//earl:hotpath
func (g *groupSink) Fold(cols *colscan.Cols) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for key, vals := range g.groups {
		g.groups[key] = vals[:0]
	}
	for i, key := range cols.Keys {
		g.groups[key] = append(g.groups[key], cols.Vals[i])
	}
	keys := g.keys[:0]
	for key, vals := range g.groups {
		if len(vals) > 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	g.keys = keys
	for _, key := range keys {
		mt, ok := g.maints[key]
		if !ok {
			var err error
			mt, err = newResampler(g.env, g.opts, g.job.Reducer, g.b, seedForKey(g.opts.Seed, key), key)
			if err != nil {
				return err
			}
			g.maints[key] = mt
		}
		vals := g.groups[key]
		sort.Float64s(vals)
		if err := mt.Grow(vals); err != nil {
			return err
		}
	}
	return nil
}

// Size implements Sink: the records held across every group's sample.
func (g *groupSink) Size() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, mt := range g.maints {
		n += int64(mt.N())
	}
	return n
}

// groupError is one group's error: the cv of its result distribution
// vals and, for a statistic whose correction scales with 1/p (sum,
// count), the share noise on top, in quadrature. A group's resamples
// all hold its n_g records, but n_g is itself one draw — the group's
// share of the n records sampled — and the corrected estimate scales
// with it: a count's resamples all say n_g, an error of 0 without the
// term.
func (g *groupSink) groupError(vals []float64, share float64) float64 {
	cv, err := stats.CV(vals)
	if err != nil {
		return math.Inf(1)
	}
	if pSensitive(g.job, 0.5) {
		cv = math.Hypot(cv, share)
	}
	return cv
}

// ErrorEstimate implements Sink; n is the whole run's sample, of which
// a partition's sink holds its own keys' part.
func (g *groupSink) ErrorEstimate(n int64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.maints) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, mt := range g.maints {
		if mt.N() < minGroupSample {
			return math.Inf(1)
		}
		vals, err := mt.Results()
		if err != nil {
			return math.Inf(1)
		}
		worst = max(worst, g.groupError(vals, shareSE(int64(mt.N()), n)))
	}
	return worst
}

// Result implements Sink: each group rendered like a statistic of a
// scalar run (FinishReport), at the fraction p the whole sample is of
// the data. Iterations counts the run's rounds plus the refreshes
// applied since.
func (g *groupSink) Result(r *Retained, refreshes int) (*PlanResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := GroupedReport{
		Job:        g.job.Name,
		Groups:     map[string]GroupResult{},
		Iterations: r.Generations + refreshes,
		Converged:  true,
	}
	for _, mt := range g.maints {
		rep.SampleSize += mt.N()
	}
	n := int64(rep.SampleSize)
	p := float64(n) / float64(r.EstTotal)
	for key, mt := range g.maints {
		vals, err := mt.Results()
		if err != nil {
			return nil, err
		}
		share := shareSE(int64(mt.N()), n)
		fr, err := FinishReport(g.job, g.opts, vals, g.groupError(vals, share), p, math.Hypot(r.SelSE, share))
		if err != nil {
			return nil, err
		}
		rep.Groups[key] = GroupResult{Estimate: fr.Estimate, CV: fr.CV, SampleSize: mt.N()}
		rep.Converged = rep.Converged && fr.Converged
	}
	if len(rep.Groups) == 0 {
		return nil, errors.New("core: grouped run produced no groups")
	}
	return &PlanResult{Groups: &rep}, nil
}

// mergeSinks folds a finished run's partition sinks into the one sink
// the run retains. Partitions own disjoint keys (the shuffle routes by
// key), so a grouped run's sinks merge into one keyspace; a scalar run
// has one partition and keeps its sink.
func mergeSinks(parts []Sink) Sink {
	first, ok := parts[0].(*groupSink)
	if !ok {
		return parts[0]
	}
	for _, p := range parts[1:] {
		for key, mt := range p.(*groupSink).maints {
			first.maints[key] = mt
		}
	}
	return first
}
