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
	// Parallelism is the worker-pool size for phase 2: 0 (or negative)
	// means runtime.GOMAXPROCS, 1 forces the sequential path. Phase 2's
	// replicates run on min(replicates, workers) of them, and each
	// replicate's maintainer shards its resamples over
	// max(1, workers/replicates). Plan output is identical at any value
	// for a fixed Seed. (Phase 1 is inherently sequential: it adds one
	// resample at a time and early-stops on τ-stability. What runs beside
	// it is another statistic's SSABE: core plans a query's statistics
	// concurrently.)
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

// phase1 draws EstimateB's resamples from the pilot, in stream order,
// and hands out their values one at a time. Every candidate B draws
// from the same pilot by position, so how a resample reaches its state
// is a choice the rng never sees:
//
//   - a reducer that takes a batch in any order (mr.Rank) has the pilot
//     sorted once and each resample counted into place;
//   - a reducer that folds states side by side (mr.LaneUpdater) has a
//     group of stats.WelfordLanes resamples drawn into per-lane buffers
//     — one rng, so group order is resample order — and folded in one
//     mr.UpdateLanes from empty states, which the capability defines to
//     be Initialize over the same values;
//   - any other reducer gets one Initialize per resample.
//
// Resamples drawn past the stopping B are dropped with the rng, which
// is EstimateB's own.
type phase1 struct {
	cfg   Config
	pilot []float64
	src   *stats.PCG

	rk     *mr.Ranking
	counts []uint32 // per distinct pilot value; zero between resamples

	lanes  bool        // the reducer is an mr.LaneUpdater and the pilot is not ranked
	bufs   [][]float64 // a resample's values, one buffer per state of a group
	states []mr.State  // the group's states (capacity: the group width); states[next:] await Finalize
	next   int
}

func newPhase1(pilot []float64, cfg Config) *phase1 {
	p := &phase1{cfg: cfg, pilot: pilot, src: newRNG(cfg.Seed)}
	width := 1
	if p.rk = mr.Rank(cfg.Reducer, pilot); p.rk != nil {
		p.counts = make([]uint32, len(p.rk.Distinct))
	} else {
		if _, p.lanes = cfg.Reducer.(mr.LaneUpdater); p.lanes {
			width = stats.WelfordLanes
		}
		p.bufs = make([][]float64, width)
		for k := range p.bufs {
			p.bufs[k] = make([]float64, len(pilot))
		}
	}
	p.states = make([]mr.State, 0, width)
	return p
}

// value returns the statistic on the next resample; left (≥ 1) is how
// many more the caller may still ask for, this one included, and clips
// the group drawn to serve it.
func (p *phase1) value(left int) (float64, error) {
	if p.next == len(p.states) {
		if err := p.drawGroup(min(cap(p.states), left)); err != nil {
			return 0, err
		}
	}
	st := p.states[p.next]
	p.next++
	return p.cfg.Reducer.Finalize(st)
}

// drawGroup draws the next group resamples and leaves their states in
// p.states.
//
//earl:hotpath
func (p *phase1) drawGroup(group int) error {
	var idx [stats.IndexBlock]uint32
	n := len(p.pilot)
	p.states, p.next = p.states[:0], 0
	for k := 0; k < group; k++ {
		for done := 0; done < n; done += len(idx) {
			block := idx[:min(len(idx), n-done)]
			p.src.Indices(block, n)
			if p.rk != nil {
				for _, j := range block {
					p.counts[p.rk.Of[j]]++
				}
				continue
			}
			out := p.bufs[k][done : done+len(block)]
			for i, j := range block {
				out[i] = p.pilot[j]
			}
		}
		var st mr.State
		var err error
		switch {
		case p.rk != nil:
			st, err = p.rk.Initialize(p.cfg.Key, p.counts)
		case p.lanes:
			st, err = p.cfg.Reducer.Initialize(p.cfg.Key, nil)
		default:
			st, err = p.cfg.Reducer.Initialize(p.cfg.Key, p.bufs[k])
		}
		if err != nil {
			return err
		}
		p.states = append(p.states, st)
	}
	if !p.lanes {
		return nil
	}
	return mr.UpdateLanes(p.cfg.Reducer, p.states, p.bufs[:group])
}

// EstimateB runs phase 1 on the pilot sample: resamples are added one at
// a time (each new candidate B reuses all previous resamples, the
// incremental-processing observation of §4), and the loop stops once the
// error measure has moved less than τ for stableSteps consecutive steps.
// It returns the chosen B and the cv trace indexed by B−2.
func EstimateB(pilot []float64, cfg Config) (int, []float64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, nil, err
	}
	if len(pilot) < 2 {
		return 0, nil, stats.ErrShortInput
	}
	resamples := newPhase1(pilot, cfg)
	values := make([]float64, 0, cfg.MaxB)
	drawValue := func() error {
		v, err := resamples.value(cfg.MaxB - len(values))
		if err != nil {
			return err
		}
		values = append(values, v)
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := drawValue(); err != nil {
			return 0, nil, err
		}
	}
	trace := []float64{}
	prev, err := stats.CV(values)
	if err != nil {
		return 0, nil, err
	}
	trace = append(trace, prev)
	stable := 0
	for b := 3; b <= cfg.MaxB; b++ {
		if err := drawValue(); err != nil {
			return 0, nil, err
		}
		cur, err := stats.CV(values)
		if err != nil {
			return 0, nil, err
		}
		trace = append(trace, cur)
		scale := math.Abs(cur)
		if scale == 0 {
			scale = 1e-12
		}
		if math.Abs(cur-prev)/scale < cfg.Tau {
			stable++
			if stable >= stableSteps {
				return b, trace, nil
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	return cfg.MaxB, trace, nil
}

// CurvePoint is one (subsample size, error) observation from phase 2.
type CurvePoint struct {
	N  int
	CV float64
}

// EstimateN runs phase 2: the pilot is split into L = subsamples
// geometrically growing prefixes n_i = len(pilot)/2^(L−i); the error is measured on
// each with B resamples using a delta.Maintainer (so each step reuses the
// previous step's resamples), the curve cv(n) = a + b/√n is fitted and
// solved for σ. ok=false means the fitted curve never reaches σ — the
// caller should fall back to the full data set. Each curve point is
// averaged over replicates (3) independent maintained runs to tame the
// B-value noise of a single cv measurement before the fit; each prefix
// step is ranked once for all of them.
func EstimateN(pilot []float64, b int, cfg Config) (n int, ok bool, curve stats.CVCurve, points []CurvePoint, err error) {
	cfg, err = cfg.withDefaults()
	if err != nil {
		return 0, false, stats.CVCurve{}, nil, err
	}
	if b < 2 {
		return 0, false, stats.CVCurve{}, nil, fmt.Errorf("aes: need B ≥ 2, got %d", b)
	}
	minSize := 1 << (subsamples - 1)
	if len(pilot) < minSize*2 {
		return 0, false, stats.CVCurve{}, nil, fmt.Errorf("aes: pilot of %d too small for L=%d subsamples", len(pilot), subsamples)
	}
	segs := segments(pilot, cfg.Reducer)
	// The replicates own their seeds and maintainers and only read the
	// segments, so they run side by side, each maintainer on its share of
	// the workers. Their cvs are summed in r order once all have returned:
	// the float sums, and so the plan, are the same at any Parallelism.
	workers := pool.Workers(cfg.Parallelism)
	repCfg := cfg
	repCfg.Parallelism = max(1, workers/replicates)
	reps := make([][]CurvePoint, replicates)
	err = pool.ForEach(replicates, min(replicates, workers), func(r int) error {
		var err error
		reps[r], err = estimateNReplicate(segs, b, repCfg, r)
		return err
	})
	if err != nil {
		return 0, false, stats.CVCurve{}, nil, err
	}
	points = reps[0]
	for _, rep := range reps[1:] {
		for i := range points {
			points[i].CV += rep[i].CV
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
	curve, err = stats.FitCVCurve(ns, cvs)
	if err != nil {
		return 0, false, curve, points, err
	}
	n, ok = curve.SolveN(cfg.Sigma)
	return n, ok, curve, points, nil
}

// segment is one step of phase 2's growth schedule: the pilot records
// that take its prefix from n_{i−1} to n_i = end, and their ranking
// (nil unless the reducer takes batches in any order).
type segment struct {
	delta []float64
	rank  *mr.Ranking
	end   int
}

// segments cuts the pilot into the schedule's L geometrically growing
// prefixes n_i = len(pilot)/2^(L−i) and ranks each step once, for every
// replicate to read.
func segments(pilot []float64, red mr.IncrementalReducer) []segment {
	var segs []segment
	prevEnd := 0
	for i := 1; i <= subsamples; i++ {
		end := len(pilot) >> (subsamples - i)
		if end <= prevEnd {
			continue
		}
		ds := pilot[prevEnd:end]
		segs = append(segs, segment{delta: ds, rank: mr.Rank(red, ds), end: end})
		prevEnd = end
	}
	return segs
}

// estimateNReplicate runs one delta-maintained pass over the phase-2
// growth schedule and returns the cv at each prefix size. Replicate r
// owns a fixed seed offset, so the averaged curve is deterministic.
func estimateNReplicate(segs []segment, b int, cfg Config, r int) ([]CurvePoint, error) {
	maint, err := delta.New(delta.Config{
		Reducer:     cfg.Reducer,
		B:           b,
		Seed:        cfg.Seed + 1 + uint64(r)*0x9e37,
		Metrics:     cfg.Metrics,
		Key:         cfg.Key,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	points := make([]CurvePoint, 0, len(segs))
	for i, seg := range segs {
		// The maintainer is read once more after its last point and then
		// dropped, so that point need not prepare a next generation.
		if err := maint.GrowRanked(seg.delta, seg.rank, i == len(segs)-1); err != nil {
			return nil, err
		}
		vals, err := maint.Results()
		if err != nil {
			return nil, err
		}
		cv, err := stats.CV(vals)
		if err != nil {
			return nil, err
		}
		points = append(points, CurvePoint{N: seg.end, CV: cv})
	}
	return points, nil
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
// B×n ≥ N cutoff (§3.1) against totalN, the full data-set size.
func SSABE(pilot []float64, totalN int64, cfg Config) (Plan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Plan{}, err
	}
	b, trace, err := EstimateB(pilot, cfg)
	if err != nil {
		return Plan{}, fmt.Errorf("aes: phase 1: %w", err)
	}
	n, ok, curve, points, err := EstimateN(pilot, b, cfg)
	if err != nil {
		return Plan{}, fmt.Errorf("aes: phase 2: %w", err)
	}
	plan := Plan{B: b, N: n, Curve: curve, BTrace: trace, Points: points}
	if !ok || int64(b)*int64(n) >= totalN {
		plan.UseFull = true
	}
	return plan, nil
}
