// Package aes implements EARL's Accuracy Estimation Stage (§3.1) and the
// Sample Size And Bootstrap Estimation algorithm, SSABE (§3.2).
//
// The AES consumes the result distribution — the B values of the user's
// statistic computed on B bootstrap resamples — and reduces it to an
// error measure: the coefficient of variation cv = stddev/|mean|
// (stats.CV). §3 notes the approach is independent of the measure; cv is
// the one every run and every plan uses.
//
// SSABE is the two-phase pilot that runs in "local mode" before the
// cluster job starts (§3.2):
//
//	phase 1 — grow the number of bootstraps B over a small pilot sample
//	          until the error estimate stabilises: |cv_i − cv_{i−1}| < τ;
//	phase 2 — split the pilot into l=5 geometrically growing subsamples
//	          n_i = n/2^(l−i), measure cv(n_i) with B resamples (reusing
//	          work via delta maintenance), least-squares fit the curve
//	          cv(n) = a + b/√n, and solve it for the n achieving the
//	          target σ.
//
// If B×n ≥ N, EARL tells the caller that early approximation cannot beat
// the exact job and the full data set should be processed instead.
//
// A query asking for several statistics is planned by one SSABE
// (PlanAll): both phases draw each resample once and fold it into every
// statistic that reads it, and each statistic still stops phase 1 at
// its own B and gets the plan an SSABE of its own would give it — save
// one whose reducer declares a plug-in error (mr.PlugInReducer: the
// mean, and the sum, which only rescales it). SSABE exists for
// arbitrary statistics (§3.2); for those the curve is known in closed
// form, cv(n) = cv₁/√n through the pilot's s/|x̄| (Efron's plug-in
// standard error), so PlanAll takes their n from it, keeps phase 1's B
// and the B×n ≥ N cutoff, and folds phase 2's replicates for the other
// statistics only: a mean-only query runs none. SSABE itself stays the
// paper's two phases for every reducer.
//
// Every resample of either phase is drawn from the one pilot, which is
// ranked once (mr.Rank). Over a ranked pilot a quantile is planned from
// counts alone and no order-statistic state is built: phase 1 finalizes
// each candidate resample from its counts by rank
// (mr.MultisetReducer.FinalizeCounted), and phase 2's maintainers are
// told the pilot's distinct values as their universe
// (delta.Config.Universe), each resample one count vector over them
// that every quantile of the query reads. A pilot that is not ranked —
// a NaN, or +0 beside −0 — keeps the states. A state, wherever one is
// built, starts empty (mr.IncrementalReducer.Initialize) and takes its
// resample through Update or UpdateLanes.
package aes

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/delta"
	"repro/internal/mr"
	"repro/internal/pool"
	"repro/internal/simcost"
	"repro/internal/stats"
)

const (
	// subsamples is L, the subsample count of phase 2 (paper: 5).
	subsamples = 5
	// stableSteps is how many consecutive τ-stable steps phase 1 requires
	// before it stops (robustness against one lucky step).
	stableSteps = 3
	// replicates is how many independent delta-maintained runs phase 2
	// averages each curve point over. A single run measures each cv from
	// only B values (relative noise ≈ 1/√(2(B−1)), ~17% at the paper's
	// B≈30), and SolveN amplifies intercept noise badly; averaging a few
	// replicates stabilises the fitted curve at pilot scale, where the
	// extra resampling is cheap: the replicates share one ranking of each
	// pilot segment and run side by side.
	replicates = 3
)

// Config parameterises the stage.
type Config struct {
	Reducer mr.IncrementalReducer
	Sigma   float64 // user-desired error bound σ
	// Tau is the stability threshold τ: phase 1 stops once the error
	// estimate's *relative* step |cv_i − cv_{i−1}| / cv_i has stayed
	// below τ for stableSteps consecutive B's. (The paper states τ as an
	// absolute difference; a relative criterion is the scale-free
	// equivalent — the pilot's cv magnitude depends on the pilot size,
	// which the user shouldn't have to know.) Defaults to 0.03, which
	// lands B in the paper's "roughly 30" regime (§3.1).
	Tau     float64
	MaxB    int // cap on bootstraps (default 2/τ)
	Seed    uint64
	Metrics *simcost.Metrics
	Key     string // reduce key handed to Initialize
	// Parallelism is the worker-pool size: 0 (or negative) means
	// runtime.GOMAXPROCS, 1 forces the sequential path. Above 1, phase
	// 2's replicates all run at once, and each replicate's maintainer
	// shards its resamples over all the workers.
	// Plan output is identical at any value for a fixed Seed. (Phase 1
	// is inherently sequential: it adds one resample at a time and
	// early-stops on τ-stability, in one pass for all the statistics
	// PlanAll plans.)
	Parallelism int
}

func (c Config) withDefaults() (Config, error) {
	if c.Reducer == nil {
		return c, errors.New("aes: Config.Reducer is required")
	}
	if c.Sigma <= 0 {
		return c, fmt.Errorf("aes: Sigma must be positive, got %v", c.Sigma)
	}
	if c.Tau < 0 {
		return c, fmt.Errorf("aes: Tau must be positive, got %v", c.Tau)
	}
	if c.Tau == 0 {
		c.Tau = 0.03
	}
	if c.MaxB <= 0 {
		c.MaxB = int(math.Ceil(2 / c.Tau))
	}
	if c.MaxB < 3 {
		c.MaxB = 3
	}
	return c, nil
}

// chooser is one statistic's phase 1: the values of its resamples so
// far, the cv trace over them, and the τ-stability run that stops it.
type chooser struct {
	cfg     Config
	counted mr.MultisetReducer // the reducer, when the pilot is ranked and it takes counts
	lanes   bool               // the reducer is an mr.LaneUpdater and does not take counts
	states  []mr.State         // lanes: the current group's states

	values []float64
	trace  []float64
	prev   float64
	stable int
	b      int // the chosen B; 0 while choosing
	err    error
}

func (c *chooser) choosing() bool { return c.b == 0 && c.err == nil }

// add takes the statistic's value on its next resample and applies the
// stopping rule: from the third value on, phase 1 stops once the cv's
// relative step has stayed below τ for stableSteps steps, or at MaxB.
func (c *chooser) add(v float64) {
	c.values = append(c.values, v)
	b := len(c.values)
	if b < 2 {
		return
	}
	cur, err := stats.CV(c.values)
	if err != nil {
		c.err = err
		return
	}
	c.trace = append(c.trace, cur)
	if b > 2 {
		scale := math.Abs(cur)
		if scale == 0 {
			scale = 1e-12
		}
		if math.Abs(cur-c.prev)/scale < c.cfg.Tau {
			c.stable++
			if c.stable >= stableSteps {
				c.b = b
				return
			}
		} else {
			c.stable = 0
		}
	}
	c.prev = cur
	if b == c.cfg.MaxB {
		c.b = b
	}
}

// estimateB runs phase 1 for every statistic at once. Resamples come
// from the pilot in stream order, each drawn once, and every statistic
// still choosing its B reads each in turn — so each sees exactly the
// values a phase 1 of its own would, since every candidate B draws from
// the same pilot by position and how a resample reaches a state is a
// choice the rng never sees:
//
//   - a reducer that takes a batch in any order (mr.MultisetReducer)
//     finalizes the resample from its counts by rank, over one sort of
//     the pilot shared by every such statistic, with no state built;
//   - a reducer that folds states side by side (mr.LaneUpdater) has a
//     group of stats.WelfordLanes resamples — one rng, so group order is
//     resample order — folded into empty states in one mr.UpdateLanes;
//   - any other reducer folds each resample it reads into an empty state
//     with one Update, one resample at a time, since a statistic may
//     stop mid-group.
//
// Groups are drawn that wide only while a lane reducer is choosing, and
// are clipped to MaxB. Each statistic still choosing reads every group
// and stops on its own. Resamples drawn past the largest stopping B are
// dropped with the rng, which is phase 1's own. rk is the pilot's ranking for ranker(cfgs),
// and the cfgs share their defaults.
func estimateB(pilot []float64, rk *mr.Ranking, cfgs []Config) []*chooser {
	cs := make([]*chooser, len(cfgs))
	if len(cfgs) == 0 {
		return cs
	}
	for s, cfg := range cfgs {
		cs[s] = &chooser{cfg: cfg}
	}
	n := len(pilot)
	if n < 2 {
		for _, c := range cs {
			c.err = stats.ErrShortInput
		}
		return cs
	}
	width := 1
	for _, c := range cs {
		if c.counted, _ = c.cfg.Reducer.(mr.MultisetReducer); rk == nil || c.counted == nil {
			c.counted = nil
			if _, c.lanes = c.cfg.Reducer.(mr.LaneUpdater); c.lanes {
				width = stats.WelfordLanes
			}
		}
	}
	gather, count, _ := needs(cs)
	d := newDraws(pilot, rk, cfgs[0].Seed, width, gather, count)
	for i := 0; ; {
		gather, count, lanes := needs(cs)
		if !gather && !count {
			return cs
		}
		group := 1
		if lanes {
			group = min(width, cfgs[0].MaxB-i)
		}
		d.draw(group, gather, count)
		for _, c := range cs {
			if c.choosing() {
				c.read(d, group)
			}
		}
		if count {
			for _, counts := range d.counts[:group] {
				clear(counts)
			}
		}
		i += group
	}
}

// needs reports how the statistics still choosing read a resample: as
// values (gather), as counts (count), and whether any folds in lanes.
func needs(cs []*chooser) (gather, count, lanes bool) {
	for _, c := range cs {
		if c.choosing() {
			gather = gather || c.counted == nil
			count = count || c.counted != nil
			lanes = lanes || c.lanes
		}
	}
	return gather, count, lanes
}

// read takes the group of resamples d drew last, in order, until the
// statistic stops: folded abreast from empty states for a lane reducer,
// finalized from its counts for one that takes counts, and otherwise
// folded into an empty state one at a time.
func (c *chooser) read(d *draws, group int) {
	if c.lanes {
		if c.err = foldLanes(c, d.bufs[:group]); c.err != nil {
			return
		}
	}
	for k := 0; k < group && c.choosing(); k++ {
		var v float64
		var err error
		switch {
		case c.counted != nil:
			v, err = c.counted.FinalizeCounted(d.rk.Distinct, d.counts[k], int64(len(d.pilot)))
		case c.lanes:
			v, err = c.cfg.Reducer.Finalize(c.states[k])
		default:
			var st mr.State
			if st, err = c.cfg.Reducer.Initialize(c.cfg.Key); err == nil {
				st, err = c.cfg.Reducer.Update(st, d.bufs[k])
			}
			if err == nil {
				v, err = c.cfg.Reducer.Finalize(st)
			}
		}
		if err != nil {
			c.err = err
			return
		}
		c.add(v)
	}
}

// draws is phase 1's resample stream: a group of resamples at a time,
// as values for the statistics that fold values and as counts by rank
// for those that take counts.
type draws struct {
	src    *stats.PCG
	pilot  []float64
	rk     *mr.Ranking
	bufs   [][]float64 // bufs[k]: the group's resample k, in draw order
	counts [][]uint32  // counts[k]: its draws per distinct pilot value; zeroed once read
}

// newDraws allocates a group of width resamples for phase 1's stream,
// as values when gather and as counts when count.
func newDraws(pilot []float64, rk *mr.Ranking, seed uint64, width int, gather, count bool) *draws {
	d := &draws{src: newRNG(seed), pilot: pilot, rk: rk, bufs: make([][]float64, width), counts: make([][]uint32, width)}
	for k := range width {
		if gather {
			d.bufs[k] = make([]float64, len(pilot))
		}
		if count {
			d.counts[k] = make([]uint32, len(rk.Distinct))
		}
	}
	return d
}

// draw draws the next group resamples from the stream, gathering their
// values and counting their draws by rank as asked.
//
//earl:hotpath
func (d *draws) draw(group int, gather, count bool) {
	var idx [stats.IndexBlock]uint32
	n := len(d.pilot)
	for k := 0; k < group; k++ {
		for done := 0; done < n; done += len(idx) {
			block := idx[:min(len(idx), n-done)]
			d.src.Indices(block, n)
			if gather {
				out := d.bufs[k][done : done+len(block)]
				for b, j := range block {
					out[b] = d.pilot[j]
				}
			}
			if count {
				for _, j := range block {
					d.counts[k][d.rk.Of[j]]++
				}
			}
		}
	}
}

// foldLanes builds a lane statistic's states for a group of resamples:
// empty states, folded abreast.
func foldLanes(c *chooser, bufs [][]float64) error {
	c.states = c.states[:0]
	for range bufs {
		st, err := c.cfg.Reducer.Initialize(c.cfg.Key)
		if err != nil {
			return err
		}
		c.states = append(c.states, st)
	}
	return mr.UpdateLanes(c.cfg.Reducer, c.states, bufs)
}

// CurvePoint is one (subsample size, error) observation from phase 2.
type CurvePoint struct {
	N  int
	CV float64
}

// fit is one statistic's phase-2 outcome: its curve points, the curve
// fitted to them and the n it solves to (ok: the curve reaches σ).
type fit struct {
	n      int
	ok     bool
	curve  stats.CVCurve
	points []CurvePoint
}

// estimateN runs phase 2 for every statistic at once over the pilot's
// segments, statistic s with bs[s] resamples. Each replicate is one
// delta.Maintainer folding every statistic: resample i is drawn and
// maintained once and read by each statistic with i < bs[s], so each
// statistic's curve is the one a phase 2 of its own would measure. A statistic's failed fold or fit
// fails the call with a *delta.StatError naming it; a failure no
// statistic owns — a pilot too small to split — is returned as it is.
// The cfgs share their defaults.
func estimateN(pilot []float64, segs []segment, bs []int, cfgs []Config) ([]fit, error) {
	for s, b := range bs {
		if b < 2 {
			return nil, &delta.StatError{Stat: s, Err: fmt.Errorf("aes: need B ≥ 2, got %d", b)}
		}
	}
	minSize := 1 << (subsamples - 1)
	if len(pilot) < minSize*2 {
		return nil, fmt.Errorf("aes: pilot of %d too small for L=%d subsamples", len(pilot), subsamples)
	}
	// The replicates own their seeds and maintainers and only read the
	// segments, so they all run at once unless the path is sequential,
	// each maintainer sharding its resamples over all the workers: the
	// scheduler packs their uneven groups onto the cores. Their cvs are
	// summed in r order once all have returned: the float sums, and so
	// the plans, are the same at any Parallelism.
	workers := pool.Workers(cfgs[0].Parallelism)
	side := replicates
	if workers == 1 {
		side = 1
	}
	reps := make([][][]CurvePoint, replicates)
	err := pool.ForEach(replicates, side, func(r int) error {
		var err error
		reps[r], err = estimateNReplicate(segs, bs, cfgs, r, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	fits := make([]fit, len(cfgs))
	for s, cfg := range cfgs {
		points := reps[0][s]
		for _, rep := range reps[1:] {
			for i := range points {
				points[i].CV += rep[s][i].CV
			}
		}
		for i := range points {
			points[i].CV /= float64(replicates)
		}
		ns := make([]int, len(points))
		cvs := make([]float64, len(points))
		for i, pt := range points {
			ns[i] = pt.N
			cvs[i] = pt.CV
		}
		curve, err := stats.FitCVCurve(ns, cvs)
		if err != nil {
			return nil, &delta.StatError{Stat: s, Err: err}
		}
		n, ok := curve.SolveN(cfg.Sigma)
		fits[s] = fit{n: n, ok: ok, curve: curve, points: points}
	}
	return fits, nil
}

// ranker is the reducer a pilot or a segment is ranked for: the first
// statistic's that takes counts (every such statistic reads the one
// ranking), or one that ranks nothing.
func ranker(cfgs []Config) mr.IncrementalReducer {
	for _, cfg := range cfgs {
		if _, ok := cfg.Reducer.(mr.MultisetReducer); ok {
			return cfg.Reducer
		}
	}
	return nil
}

// segment is one step of phase 2's growth schedule: the pilot records
// that take its prefix from n_{i−1} to n_i = end, and their ranking
// (nil unless some reducer takes batches in any order). view marks a
// ranking that is a view of the pilot's: its Distinct is the whole
// pilot's, the universe phase 2's maintainers count over.
type segment struct {
	delta []float64
	rank  *mr.Ranking
	end   int
	view  bool
}

// segments cuts the pilot into the schedule's L geometrically growing
// prefixes n_i = len(pilot)/2^(L−i) and ranks each step once for red,
// for every replicate to read.
func segments(pilot []float64, red mr.IncrementalReducer) []segment {
	return cut(pilot, red, mr.Rank(red, pilot))
}

// cut is segments given rk, the pilot's ranking for red: each step's
// ranking is a view of it — the pilot's distinct values, and the step's
// stretch of rk.Of — so it costs nothing. A pilot that is not ranked as
// a whole — a NaN, or +0 beside −0 — may still have steps that are, and
// they are ranked on their own.
func cut(pilot []float64, red mr.IncrementalReducer, rk *mr.Ranking) []segment {
	var segs []segment
	prevEnd := 0
	for i := 1; i <= subsamples; i++ {
		end := len(pilot) >> (subsamples - i)
		if end <= prevEnd {
			continue
		}
		seg := segment{delta: pilot[prevEnd:end], end: end, view: rk != nil}
		if rk != nil {
			seg.rank = &mr.Ranking{Distinct: rk.Distinct, Of: rk.Of[prevEnd:end]}
		} else {
			seg.rank = mr.Rank(red, seg.delta)
		}
		segs = append(segs, seg)
		prevEnd = end
	}
	return segs
}

// stock holds the resample storage of finished phase-2 replicates, for
// the next replicate — of any SSABE — to grow its generations into
// instead of allocating and zeroing fresh buffers. It holds them only
// weakly.
var stock delta.Stock

// estimateNReplicate runs one delta-maintained pass over the phase-2
// growth schedule and returns, per statistic, the cv at each prefix
// size. Replicate r owns a fixed seed offset, so the averaged curves are
// deterministic. Segments that are views of the pilot's ranking give
// the maintainer the pilot's distinct values as its universe: each
// resample's counted statistics are one count vector over them. The
// maintainer builds on storage a finished replicate parked in stock,
// and parks its own there when done.
func estimateNReplicate(segs []segment, bs []int, cfgs []Config, r, par int) ([][]CurvePoint, error) {
	more := make([]delta.Stat, 0, len(cfgs)-1)
	for s, cfg := range cfgs[1:] {
		more = append(more, delta.Stat{Reducer: cfg.Reducer, Key: cfg.Key, B: bs[s+1]})
	}
	var universe []float64
	if segs[0].view {
		universe = segs[0].rank.Distinct
	}
	maint, err := stock.New(delta.Config{
		Reducer:     cfgs[0].Reducer,
		B:           bs[0],
		Seed:        cfgs[0].Seed + 1 + uint64(r)*0x9e37,
		Metrics:     cfgs[0].Metrics,
		Key:         cfgs[0].Key,
		Parallelism: par,
		Universe:    universe,
	}, more...)
	if err != nil {
		return nil, err
	}
	defer maint.Release()
	points := make([][]CurvePoint, len(cfgs))
	for _, seg := range segs {
		if err := maint.GrowRanked(seg.delta, seg.rank); err != nil {
			return nil, err
		}
		for s := range cfgs {
			vals, err := maint.ResultsOf(s)
			if err == nil {
				var cv float64
				if cv, err = stats.CV(vals); err == nil {
					points[s] = append(points[s], CurvePoint{N: seg.end, CV: cv})
					continue
				}
			}
			return nil, &delta.StatError{Stat: s, Err: err}
		}
	}
	return points, nil
}

// plugIn plans a statistic that declares its plug-in error with no
// phase 2: its curve is cv(n) = cv₁/√n through the pilot's cv₁, which
// solves to stats.TheoreticalSampleSize(cv₁, σ), the normal-theory n
// Fig. 8 sets beside SSABE's. A cv₁ no n brings to σ is no plan, as an
// unreachable fitted curve is.
func plugIn(r mr.PlugInReducer, pilot []float64, sigma float64) fit {
	curve := stats.CVCurve{B: r.PlugInCV(pilot)}
	n, ok := curve.SolveN(sigma)
	return fit{n: n, ok: ok, curve: curve}
}

// Plan is SSABE's output: either run the user job with B bootstraps over
// a sample of size N, or run it exactly over the whole data set.
type Plan struct {
	B       int
	N       int
	UseFull bool // B×N ≥ total: early approximation will not pay off
	Curve   stats.CVCurve
	BTrace  []float64    // cv trace from phase 1 (Fig. 2a's series)
	Points  []CurvePoint // phase-2 observations (Fig. 2b's series)
}

// SSABE runs both phases over the pilot sample and applies the
// B×n ≥ N cutoff (§3.1) against totalN, the full data-set size. It is
// the paper's SSABE for any reducer: a statistic with a plug-in error
// is fitted a curve by phase 2 too, as Figs. 2, 5 and 8 and the
// ablations study it.
func SSABE(pilot []float64, totalN int64, cfg Config) (Plan, error) {
	plans, err := planAll(pilot, totalN, []Config{cfg}, false)
	if err != nil {
		return Plan{}, err
	}
	return plans[0], nil
}

// PlanAll plans every statistic of a query over one pilot with one
// SSABE, each resample of either phase drawn once for all the
// statistics instead of once per statistic (§4's premise — work the
// resamples share is done once — applied across statistics). Every
// statistic stops phase 1 at the B its SSABE would. One that declares
// its plug-in error (mr.PlugInReducer) then takes its N in closed form
// (plugIn) and no phase-2 resample; for every other, plans[s] is
// SSABE(pilot, totalN, cfgs[s]), bit for bit. The cfgs differ in
// Reducer and Key only: they must agree on Sigma, Tau, MaxB, Seed,
// Metrics and Parallelism. Metrics is charged what the SSABEs of the
// statistics that run phase 2 would be one by one. When statistics
// fail, the error is the first one's in statistic order.
func PlanAll(pilot []float64, totalN int64, cfgs []Config) ([]Plan, error) {
	return planAll(pilot, totalN, cfgs, true)
}

// planAll is PlanAll, with statistics that declare a plug-in error
// planned in closed form only when plugIns is set.
func planAll(pilot []float64, totalN int64, cfgs []Config, plugIns bool) ([]Plan, error) {
	cfgs = append([]Config(nil), cfgs...)
	// The statistics before live have not failed; firstErr is the one at
	// live. Those after it no longer matter and are not planned on.
	live := len(cfgs)
	var firstErr error
	fail := func(s int, err error) {
		live, firstErr = s, err
	}
	for s := range cfgs {
		cfg, err := cfgs[s].withDefaults()
		if err != nil {
			fail(s, err)
			break
		}
		if c0 := cfgs[0]; s > 0 && (cfg.Sigma != c0.Sigma || cfg.Tau != c0.Tau || cfg.MaxB != c0.MaxB ||
			cfg.Seed != c0.Seed || cfg.Metrics != c0.Metrics || cfg.Parallelism != c0.Parallelism) {
			return nil, errors.New("aes: statistics planned together must share Sigma, Tau, MaxB, Seed, Metrics and Parallelism")
		}
		cfgs[s] = cfg
	}
	// One sort of the pilot serves every statistic that takes counts, in
	// both phases.
	red := ranker(cfgs[:live])
	rk := mr.Rank(red, pilot)
	bs := make([]int, live)
	chosen := estimateB(pilot, rk, cfgs[:live])
	for s, c := range chosen {
		if c.err != nil {
			fail(s, fmt.Errorf("aes: phase 1: %w", c.err))
			break
		}
		bs[s] = c.b
	}
	// A statistic that declares its plug-in error is planned in closed
	// form; phase 2 fits the others, mc. One failing phase 2 leaves the
	// ones before it to be planned again without it: a failed grow leaves
	// no maintainer to go on with.
	fits := make([]fit, live)
	var mc, mcBs []int
	var mcCfgs []Config
	for s, cfg := range cfgs[:live] {
		if r, ok := cfg.Reducer.(mr.PlugInReducer); ok && plugIns {
			fits[s] = plugIn(r, pilot, cfg.Sigma)
		} else {
			mc, mcBs, mcCfgs = append(mc, s), append(mcBs, bs[s]), append(mcCfgs, cfg)
		}
	}
	for len(mc) > 0 {
		mcFits, err := estimateN(pilot, cut(pilot, red, rk), mcBs, mcCfgs)
		if err == nil {
			for j, s := range mc {
				fits[s] = mcFits[j]
			}
			break
		}
		j := 0
		if se := (*delta.StatError)(nil); errors.As(err, &se) {
			j = se.Stat
		}
		fail(mc[j], fmt.Errorf("aes: phase 2: %w", err))
		mc, mcBs, mcCfgs = mc[:j], mcBs[:j], mcCfgs[:j]
	}
	if firstErr != nil {
		return nil, firstErr
	}
	plans := make([]Plan, len(cfgs))
	for s, f := range fits {
		b := bs[s]
		plans[s] = Plan{B: b, N: f.n, Curve: f.curve, BTrace: chosen[s].trace, Points: f.points}
		if !f.ok || int64(b)*int64(f.n) >= totalN {
			plans[s].UseFull = true
		}
	}
	return plans, nil
}
