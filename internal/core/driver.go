package core

import (
	"errors"
	"runtime"
	"strings"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/sampling"
	"repro/internal/simcost"
)

// SamplerKind selects the sampling stage implementation (§3.3).
type SamplerKind string

// The two samplers of §3.3.
const (
	PreMapSampling  SamplerKind = "pre-map"  // Algorithm 2: sample split offsets before loading
	PostMapSampling SamplerKind = "post-map" // Algorithm 1: load, pool, draw without replacement
)

// The pilot's size (§3.2): a fraction of the data, floored and capped —
// a pilot needs statistical resolution, not a fixed fraction of
// ever-larger data.
const (
	pilotFraction = 0.01
	minPilot      = 512
	maxPilot      = 65536
)

// The sampled run's fixed shape: how many long-lived sampling mappers
// share the file's splits, and the expansion cap — the share of the
// (estimated) data a run, a refresh or an early K-Means may sample before
// giving up on convergence and finishing with its achieved accuracy.
const (
	numMappers     = 4
	MaxSampleShare = 0.5
)

// Options tunes a Run. Zero values take the paper's defaults.
type Options struct {
	Sigma   float64     // target error bound σ; 0.05 (the paper's 5%) if 0
	Sampler SamplerKind // PreMapSampling if empty
	Seed    uint64
	// ForceB / ForceN skip SSABE and use the given resample count /
	// initial sample size (experiment hooks; both must be set).
	ForceB int
	ForceN int
	// DisableDeltaMaintenance switches the reducer to the naive
	// recompute-everything resampler (§4.1's baseline; Fig. 10 ablation).
	DisableDeltaMaintenance bool
	// Parallelism is the worker-pool size of the parallel resampling
	// engine (SSABE's phase-2 replicates and the reducer's delta-update
	// loop); runtime.GOMAXPROCS(0) if 0, 1 forces the sequential path.
	// A multi-statistic query is planned by one SSABE, which draws each
	// resample once for every statistic. Results are reproducible for a
	// fixed Seed at any parallelism.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Sigma <= 0 {
		o.Sigma = 0.05
	}
	if o.Sampler == "" {
		o.Sampler = PreMapSampling
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Report is the outcome of one EARL run.
type Report struct {
	Job         string
	Estimate    float64 // corrected final result
	Uncorrected float64 // raw bootstrap estimate before correct()
	CV          float64 // achieved error at termination
	CILo, CIHi  float64 // percentile interval over the result distribution
	B           int     // bootstraps used
	SampleSize  int     // records actually consumed by the reducer
	PlannedN    int     // SSABE's initial sample size
	Iterations  int     // reducer growth generations (1 = SSABE got it right)
	UsedFull    bool    // fell back to the exact answer over the full data (§3.1)
	Converged   bool    // final error ≤ σ
	FractionP   float64 // sampling fraction handed to correct()
	FailedMaps  int     // mapper tasks lost to failures (§3.4 path)
	EstTotalN   int64   // estimated total records in the input
}

// resampler abstracts the optimized and naive bootstrap reducers
// (Fig. 10): a growing sample whose B resample statistics can be read at
// any time.
type resampler interface {
	Grow([]float64) error
	Results() ([]float64, error)
	N() int
}

// Execute is the one sampled driver. Every sampled run — one statistic
// or several over one shared sample, global or per group key, plan or
// library job — is validated, piloted, planned, run on the generic
// engine (engine.go) and assembled here; the only mode-specific step is
// planning: one SSABE (§3.2) planning every statistic for scalar
// queries, a distinct-key sizing for grouped ones. A statistic that
// declares a plug-in error (mr.PlugInReducer: mean, sum) takes only
// SSABE's phase-1 B and plans its n in closed form.
//
// A scalar query over several statistics is ONE shared-pass run: one
// pilot, one SSABE giving a plan per statistic from resamples drawn once
// for all of them (aes.PlanAll), one sampled map phase sized at
// the largest planned n, and one pass over the drawn records feeding
// every statistic's resample set — a k-statistic run costs the IO of the
// most demanding single statistic plus only resampling CPU for the rest.
// The statistics must share the input record format: records are parsed
// once, as the first job says. A grouped query keeps one resample set
// per group key and terminates when every group's error is at or below
// σ; SSABE assumes one statistic, so its initial sample is ≈64 records
// per distinct pilot key (floored at minPilot, B = 30) and the expansion
// loop does the rest — a documented extension beyond the paper.
//
// retain=false is a one-shot: the exact fall-back (§3.1) is one column
// scan of the file (runExact), no state is returned, and the run's
// sampling streams give back their scan-cache blocks before Execute
// returns (so does the pilot, in either mode). retain=true is a
// watch's opening run: the Retained state comes back, and on the exact
// fall-back the same one column scan folds into an exactSink instead —
// one incremental reduce state per statistic — which every refresh
// grows by the appended splits alone (Retained.Refresh).
//
// Handed a run's Env (Env.Open), Execute reads that run's commit and
// charges its ledger; handed the cluster's, it opens a run charged to
// the cluster's Metrics. Either way one commit serves the whole run
// (pilot, sampled job and exact fall-back alike), so a rewrite or an
// append landing beside it cannot give it a blend of two file states.
func Execute(env *Env, pq *PlannedQuery, retain bool) (*PlanResult, *Retained, error) {
	if env == nil || env.FS == nil || env.Cluster == nil {
		return nil, nil, errors.New("core: incomplete Env")
	}
	env, release := env.openRun()
	defer release()
	res, ret, err := execute(env, pq, retain)
	if ret != nil {
		// Retained streams read live after: held, the snapshot would keep
		// this commit's namespace alive as long as the watch that owns them.
		repinSources(ret.sources, env.FS)
	}
	return res, ret, err
}

// planned is what the mode-specific planning step hands the shared tail
// of execute.
type planned struct {
	sinks    []sink     // one per reduce partition
	plans    []aes.Plan // scalar only
	initialN int64
	name     string // MR job name
	useFull  bool   // scalar only: sampling cannot pay, take the exact path
}

func execute(env *Env, pq *PlannedQuery, retain bool) (*PlanResult, *Retained, error) {
	opts := pq.Opts.withDefaults()
	jset, path, prog, grouped := pq.Jobs, pq.Spec.Path, pq.Prog, pq.Grouped()
	if len(jset) == 0 {
		return nil, nil, errors.New("core: need at least one job")
	}
	for _, job := range jset {
		if job.Reducer == nil || (!grouped && job.Parse == nil) {
			return nil, nil, errors.New("core: job needs Reducer and Parse")
		}
	}
	// The pilot decodes records exactly as the sampled job that follows
	// will (under a built-in format it shares env.Scan's decoded blocks
	// with that job, and with every other run over the file).
	dec, err := pq.decode()
	if err != nil {
		return nil, nil, err
	}
	st, err := env.View().State(path)
	if err != nil {
		return nil, nil, err
	}

	// ---- Local-mode pilot (§3.2), shared by every statistic. ----------
	pilot := &pilotSample{prog: prog}
	if pilot.s, err = sampling.NewPreMap(env.View(), path, 0, opts.Seed); err != nil {
		return nil, nil, err
	}
	defer pilot.s.Release()
	if err := dec.enable(pilot.s, env.Scan); err != nil {
		return nil, nil, err
	}
	// The pilot draws through the mappers' own plan stage; it charges its
	// reads once, below, rather than per draw.
	pilot.src = withPlan(preMapSource{s: pilot.s}, prog, false)
	// Pilot records are real input reads (the sampler backtracks lines out
	// of DFS blocks), so they are charged to RecordsRead like every other
	// mapper delivery. The pilot is drawn ONCE per run however many
	// statistics ride it — charging it is what makes the shared-pilot
	// saving of a multi-statistic run visible in the counters.
	defer func() { env.Metrics.Charge(simcost.Snapshot{RecordsRead: int64(pilot.s.Taken())}) }()
	// exact is the §3.1 switch back to the standard workflow; known says
	// whether the pilot got far enough to estimate the input's size.
	exact := func(plans []aes.Plan, estTotal int64, known bool) (*PlanResult, *Retained, error) {
		if retain {
			return retainExact(env, jset, &Retained{plans: plans, path: path, dec: dec, prog: prog, opts: opts}, st)
		}
		reps, err := runExact(env, jset, path, 0, dec, prog)
		if known {
			for i := range reps {
				reps[i].EstTotalN = estTotal
			}
		}
		return &PlanResult{Reports: reps}, nil, err
	}

	var pl planned
	if grouped {
		pl, err = planGrouped(env, jset[0], opts, pilot)
	} else {
		var tiny bool
		if pl, tiny, err = planScalar(env, jset, opts, pilot); tiny {
			return exact(nil, 0, false) // tiny data set: just run it exactly
		}
	}
	if err != nil {
		return nil, nil, err
	}
	estTotal := pilot.effTotal()
	if pl.useFull {
		// "EARL informs the user that an early estimation with the
		// specified accuracy is not faster than computing f over N" —
		// §3.1. One statistic needing the full pass means the shared pass
		// reads everything, so the whole set takes the exact path together.
		return exact(pl.plans, estTotal, true)
	}

	// ---- Pipelined sampling job (§2.1's modified Hadoop flow). --------
	res, err := runEngine(env, path, opts, engineSpec{
		Name:     pl.name,
		Sinks:    pl.sinks,
		InitialN: pl.initialN,
		MaxN:     max(int64(MaxSampleShare*float64(estTotal)), pl.initialN),
		Decode:   dec,
		// Scalar runs are the one-key degenerate case: every record routes
		// to the single reduce partition under the job-set's own name.
		Key:   jset[0].Name,
		Keyed: grouped,
		Prog:  prog,
	})
	if err != nil {
		return nil, nil, err
	}
	ret := &Retained{
		sink:        mergeSinks(pl.sinks),
		plans:       pl.plans,
		sources:     res.Sources,
		dry:         make([]bool, len(res.Sources)),
		path:        path,
		dec:         dec,
		prog:        prog,
		estTotal:    estTotal,
		synced:      st,
		opts:        opts,
		generations: res.Generations,
		selSE:       pilot.selSE(),
	}
	out, err := ret.Result(0)
	if err != nil || !retain {
		// Only a watch keeps the streams: a one-shot's end is theirs.
		releaseSources(res.Sources)
		ret = nil
	}
	if err != nil {
		return nil, nil, err
	}
	for i := range out.Reports {
		out.Reports[i].FailedMaps = res.FailedMaps
	}
	if out.Groups != nil {
		out.Groups.FailedMaps = res.FailedMaps
	}
	return out, ret, nil
}

// planScalar is scalar planning: extend the 256-record probe to the full
// pilot, then one SSABE for all the statistics (aes.PlanAll), a plan
// each, in closed form for those that declare a plug-in error. tiny reports a file the probe alone ran dry — too small to plan
// over.
func planScalar(env *Env, jset []jobs.Numeric, opts Options, pilot *pilotSample) (pl planned, tiny bool, err error) {
	if tiny, err = pilot.extend(256); tiny || err != nil {
		return pl, tiny, err
	}
	pilotN := min(max(int(pilotFraction*float64(pilot.effTotal())), minPilot), maxPilot)
	forced := opts.ForceB > 1 && opts.ForceN > 0
	if forced {
		pilotN = pilot.cols.Len() // plan is forced: the probe alone suffices for estTotal
		if pilot.filtered() && pilotN < minPilot {
			// Under a filter the pilot doubles as the selectivity
			// estimator; the probe alone makes the effective-N denominator
			// (and every corrected statistic) too noisy.
			pilotN = minPilot
		}
	}
	if pilotN > pilot.cols.Len() {
		if _, err = pilot.extend(pilotN - pilot.cols.Len()); err != nil {
			return pl, false, err
		}
	}
	estTotal := pilot.effTotal() // refined by the larger pilot

	// One SSABE plans every statistic: each resample is drawn once and
	// read by all of them.
	if forced {
		pl.plans = make([]aes.Plan, len(jset))
		for i := range pl.plans {
			pl.plans[i] = aes.Plan{B: opts.ForceB, N: opts.ForceN}
		}
	} else {
		cfgs := make([]aes.Config, len(jset))
		for i, job := range jset {
			cfgs[i] = aes.Config{
				Reducer:     job.Reducer,
				Sigma:       opts.Sigma,
				Seed:        opts.Seed + 17,
				Metrics:     env.Metrics,
				Key:         job.Name,
				Parallelism: opts.Parallelism,
			}
		}
		if pl.plans, err = aes.PlanAll(pilot.cols.Vals, estTotal, cfgs); err != nil {
			return pl, false, err
		}
	}
	for _, p := range pl.plans {
		pl.useFull = pl.useFull || p.UseFull
		pl.initialN = max(pl.initialN, int64(p.N))
	}
	if pl.useFull {
		return pl, false, nil
	}
	ss, err := newStatSink(env, jset, pl.plans, opts)
	pl.sinks, pl.name = []sink{ss}, "earl-"+jobsetTag(jset)
	return pl, false, err
}

// planGrouped is grouped planning: draw until 512 records survive the
// plan (or the file is dry) — the distinct keys and the selectivity both
// come from the post-filter stream the run is actually about — and size
// the initial sample from the distinct-key count.
func planGrouped(env *Env, job jobs.Numeric, opts Options, pilot *pilotSample) (planned, error) {
	if _, err := pilot.extend(512); err != nil {
		return planned{}, err
	}
	keys := map[string]struct{}{}
	for _, k := range pilot.cols.Keys {
		keys[k] = struct{}{}
	}
	if len(keys) == 0 {
		if pilot.filtered() {
			return planned{}, errors.New("core: no records matched filter")
		}
		return planned{}, errors.New("core: no records found")
	}
	b := opts.ForceB
	if b <= 1 {
		b = 30
	}
	initialN := opts.ForceN
	if initialN <= 0 {
		initialN = max(64*len(keys), minPilot)
	}
	r := 2 // grouped mode exercises the partitioned path
	if r > len(keys) {
		r = 1
	}
	pl := planned{initialN: int64(initialN), name: "earl-grouped-" + job.Name, sinks: make([]sink, r)}
	for p := range pl.sinks {
		pl.sinks[p] = newGroupSink(env, job, b, opts)
	}
	return pl, nil
}

// jobsetTag names a statistic set for MR job names ("mean",
// "mean+p95+count").
func jobsetTag(jset []jobs.Numeric) string {
	names := make([]string, len(jset))
	for i, j := range jset {
		names[i] = j.Name
	}
	return strings.Join(names, "+")
}

// pilotSample is a run's local-mode pilot sample (§3.2): the records drawn so
// far, post-plan, the sampler they came from and the stream that pushes
// the plan into its draws.
type pilotSample struct {
	s    *sampling.PreMap
	src  recordSource
	prog *plan.Program // nil without a plan
	cols colscan.Cols
}

func (p *pilotSample) filtered() bool { return p.prog != nil && p.prog.HasFilter() }

// extend grows the pilot by n records; dry reports a file that ran out
// first. Under a plan, n counts POST-FILTER records: the pilot keeps
// drawing raw records through σ/π until n survivors arrive (or the file
// is dry), so sample sizes are planned against the filtered
// subpopulation — the population the statistics and their confidence
// intervals are about.
func (p *pilotSample) extend(n int) (dry bool, err error) {
	if _, err = p.src.DrawCols(n, &p.cols); errors.Is(err, sampling.ErrExhausted) {
		return true, nil
	}
	return false, err
}

// effTotal estimates the population the run is over: the whole file,
// scaled by the pilot's observed selectivity when a filter is pushed
// down. Filter-then-sample means every N downstream — SSABE's, the
// expansion cap's, the correction fraction p's — is denominated in
// effective (post-filter subpopulation) records.
func (p *pilotSample) effTotal() int64 {
	raw, taken := p.s.EstimatedTotalRecords(), p.s.Taken()
	if !p.filtered() || taken == 0 {
		return raw
	}
	return max(int64(float64(raw)*float64(p.cols.Len())/float64(taken)), 1)
}

// selSE is the relative standard error of the pilot's selectivity
// estimate — the only noisy factor in the effective subpopulation size.
// finishReport widens extensive statistics' intervals by it; it is 0 (no
// widening, bit-identical reports) without a filter.
func (p *pilotSample) selSE() float64 {
	if !p.filtered() {
		return 0
	}
	return shareSE(int64(p.cols.Len()), int64(p.s.Taken()))
}
