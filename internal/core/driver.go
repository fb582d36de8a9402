package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sampling"
)

// SamplerKind selects the sampling stage implementation (§3.3).
type SamplerKind string

// The two samplers of §3.3.
const (
	PreMapSampling  SamplerKind = "pre-map"  // Algorithm 2: sample split offsets before loading
	PostMapSampling SamplerKind = "post-map" // Algorithm 1: load, pool, draw without replacement
)

// Options tunes a Run. Zero values take the paper's defaults.
type Options struct {
	Sigma         float64     // target error bound σ; 0.05 (the paper's 5%) if 0
	Tau           float64     // SSABE relative stability threshold τ; aes default (0.03) if 0
	PilotFraction float64     // pilot sample fraction p; 0.01 (§3.2) if 0
	MinPilot      int         // pilot floor; 512 if 0
	MaxPilot      int         // pilot cap; 65536 if 0 (a pilot needs statistical resolution, not a fixed fraction of ever-larger data)
	Sampler       SamplerKind // PreMapSampling if empty
	NumMappers    int         // long-lived sampling mappers; 4 if 0
	SplitSize     int64       // input split size; DFS block size if 0
	Confidence    float64     // CI level for the report; 0.95 if 0
	Seed          uint64
	// ForceB / ForceN skip SSABE and use the given resample count /
	// initial sample size (experiment hooks; both must be set).
	ForceB int
	ForceN int
	// MaxSampleFraction caps sample expansion at this fraction of the
	// (estimated) data size before giving up on convergence; 0.5 if 0.
	MaxSampleFraction float64
	// Measure overrides the error measure (aes.CV if nil).
	Measure aes.Measure
	// DisableDeltaMaintenance switches the reducer to the naive
	// recompute-everything resampler (§4.1's baseline; Fig. 10 ablation).
	DisableDeltaMaintenance bool
	// Parallelism is the worker-pool size of the parallel resampling
	// engine (SSABE's pilot bootstraps and the reducer's delta-update
	// loop); runtime.GOMAXPROCS(0) if 0, 1 forces the sequential path.
	// A multi-statistic query also plans its statistics concurrently, up
	// to this many SSABEs at a time (so Measure may be called from
	// several goroutines). Results are reproducible for a fixed Seed at
	// any parallelism.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Sigma <= 0 {
		o.Sigma = 0.05
	}
	if o.PilotFraction <= 0 {
		o.PilotFraction = 0.01
	}
	if o.MinPilot <= 0 {
		o.MinPilot = 512
	}
	if o.MaxPilot <= 0 {
		o.MaxPilot = 65536
	}
	if o.MaxPilot < o.MinPilot {
		o.MaxPilot = o.MinPilot
	}
	if o.Sampler == "" {
		o.Sampler = PreMapSampling
	}
	if o.NumMappers <= 0 {
		o.NumMappers = 4
	}
	if o.Confidence <= 0 {
		o.Confidence = 0.95
	}
	if o.MaxSampleFraction <= 0 {
		o.MaxSampleFraction = 0.5
	}
	if o.Measure == nil {
		o.Measure = aes.CV
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
	UsedFull    bool    // fell back to the exact full-data job
	Converged   bool    // final error ≤ σ
	FractionP   float64 // sampling fraction handed to correct()
	FailedMaps  int     // mapper tasks lost to failures (§3.4 path)
	EstTotalN   int64   // estimated total records in the input
}

// Resampler abstracts the optimized and naive bootstrap reducers
// (Fig. 10): a growing sample whose B resample statistics can be read at
// any time. It is exported so maintained queries (internal/live) can keep
// growing the same resample set across ingest batches.
type Resampler interface {
	Grow([]float64) error
	Results() ([]float64, error)
	N() int
	// Updates reports cumulative per-item state operations — the work
	// measure delta maintenance minimises (§4, Fig. 10).
	Updates() int64
}

// StatState is the retained working state of one statistic of a sampled
// run: its SSABE plan and its delta-maintained resample set.
type StatState struct {
	Plan  aes.Plan
	Maint Resampler // nil when the run fell back to the exact path
}

// LiveState is the retained working state of one sampled run: the
// per-statistic SSABE plans and delta-maintained resample sets (one
// entry per statistic; a single-statistic run has exactly one), plus the
// per-mapper sampling streams the statistics share. Run discards it;
// RunScalarLive hands it to the caller so a maintained query can keep
// the early answer fresh as data is appended, paying only for the delta.
type LiveState struct {
	Stats       []StatState
	EstTotal    int64          // estimated records covered so far
	SyncedBytes int64          // file bytes covered (the ingest high-water mark)
	Sources     []RecordSource // retained per-mapper samplers (without-replacement across refreshes)
	Opts        Options        // with defaults applied
	Generations int            // Grow generations applied so far
	SelSE       float64        // relative std. error of the filtered-subpopulation size estimate (0 = exact)
}

// Run executes job over the line-encoded numeric file at path with early
// approximate results per the paper's full workflow.
func Run(env *Env, job jobs.Numeric, path string, opts Options) (Report, error) {
	reps, err := RunMulti(env, []jobs.Numeric{job}, path, opts)
	if err != nil {
		return Report{}, err
	}
	return reps[0], nil
}

// RunMulti executes a set of statistics over the same records as ONE
// shared-pass run: one pilot, one SSABE plan per statistic, one sampled
// map phase sized at the largest planned n, and one pass over the drawn
// records feeding every statistic's resample set. The input is read once
// regardless of how many statistics ride the pass — a k-statistic run
// costs the IO of the most demanding single statistic plus only
// resampling CPU for the rest. One Report is returned per statistic, in
// job order; the run terminates when every statistic meets σ (or the
// expansion cap is hit).
//
// The statistics must share the input record format: records are parsed
// once, as the first job says (its ScanFormat, else its Parse), and the
// value feeds every statistic (true of all built-in numeric jobs, which
// read one number per line).
//
// Every statistic's resample set is maintained over the full shared
// sample (not capped at its own planned n_i) — see statSink for why the
// maintained-query path requires the per-statistic samples to stay at
// one common sampling fraction.
func RunMulti(env *Env, jset []jobs.Numeric, path string, opts Options) ([]Report, error) {
	reps, _, err := RunScalarLive(env, jset, path, opts, nil, false)
	return reps, err
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

// RunScalarLive is the scalar driver — one statistic or several over one
// shared sample — additionally returning the run's retained working
// state (one StatState per statistic) so the caller can maintain the
// result under appended data (internal/live builds on this).
//
// A non-nil prog is a compiled query plan pushed into the pilot and the
// sampling sources; opts must then already carry the spec's knobs
// (PreparePlan's Opts).
//
// deferExact changes the fall-back to the exact path: the exact MR job
// is NOT executed, the returned Reports carry only UsedFull/EstTotalN
// and the LiveState has no maintainers. The caller is expected to
// produce the exact answer itself — internal/live builds an incremental
// exact state with a single scan instead of running a whole-file job
// whose output it would throw away. Without deferExact the state's
// Stats[i].Maint is nil when the run fell back to the exact job.
func RunScalarLive(env *Env, jset []jobs.Numeric, path string, opts Options, prog *plan.Program, deferExact bool) ([]Report, *LiveState, error) {
	opts = opts.withDefaults()
	if env == nil || env.FS == nil || env.Engine == nil {
		return nil, nil, errors.New("core: incomplete Env")
	}
	if len(jset) == 0 {
		return nil, nil, errors.New("core: need at least one job")
	}
	for _, job := range jset {
		if job.Reducer == nil || job.Parse == nil {
			return nil, nil, errors.New("core: job needs Reducer and Parse")
		}
	}
	size, err := env.View().Stat(path)
	if err != nil {
		return nil, nil, err
	}

	// ---- Local-mode pilot + SSABE (§3.2), shared by every statistic. --
	pilotSampler, err := sampling.NewPreMap(env.View(), path, opts.SplitSize, opts.Seed)
	if err != nil {
		return nil, nil, err
	}
	// The pilot decodes records exactly as the sampled job that follows
	// will (under a built-in format it shares env.Scan's decoded blocks
	// with that job, and with every other run over the file).
	dec := ScalarDecode(jset[0], prog)
	pilotSc := plan.NewScratch()
	if err := dec.enable(pilotSampler, env.Scan); err != nil {
		return nil, nil, err
	}
	// Pilot records are real input reads (the sampler backtracks lines out
	// of DFS blocks), so they are charged to RecordsRead like every other
	// mapper delivery. The pilot is drawn ONCE per run however many
	// statistics ride it — charging it is what makes the shared-pilot
	// saving of RunMulti visible in the counters.
	defer func() { env.Metrics.RecordsRead.Add(int64(pilotSampler.Taken())) }()
	var pilot colscan.Cols
	err = drawPilot(pilotSampler, prog, pilotSc, 256, &pilot)
	if errors.Is(err, sampling.ErrExhausted) {
		// Tiny data set: just run it exactly.
		fullPlans := make([]aes.Plan, len(jset))
		for i := range fullPlans {
			fullPlans[i] = aes.Plan{UseFull: true}
		}
		if deferExact {
			return exactReports(jset, 0, false), exactLiveState(opts, fullPlans, 0, size), nil
		}
		reps, estN, err := runExactMulti(env, jset, path, opts, prog)
		return reps, exactLiveState(opts, fullPlans, estN, size), err
	}
	if err != nil {
		return nil, nil, err
	}
	// effTotal estimates the population the run is over: the whole file,
	// scaled by the pilot's observed selectivity when a filter is pushed
	// down. Filter-then-sample means every N below — SSABE's, the
	// expansion cap's, the correction fraction p's — is denominated in
	// effective (post-filter subpopulation) records.
	effTotal := func() int64 {
		raw := pilotSampler.EstimatedTotalRecords()
		if prog == nil || !prog.HasFilter() {
			return raw
		}
		taken := pilotSampler.Taken()
		if taken == 0 {
			return raw
		}
		est := int64(float64(raw) * float64(pilot.Len()) / float64(taken))
		if est < 1 {
			est = 1
		}
		return est
	}
	estTotal := effTotal()
	pilotN := int(opts.PilotFraction * float64(estTotal))
	if pilotN < opts.MinPilot {
		pilotN = opts.MinPilot
	}
	if pilotN > opts.MaxPilot {
		pilotN = opts.MaxPilot
	}
	forced := opts.ForceB > 1 && opts.ForceN > 0
	if forced {
		pilotN = pilot.Len() // plan is forced: the probe alone suffices for estTotal
		if prog != nil && prog.HasFilter() && pilotN < opts.MinPilot {
			// Under a filter the pilot doubles as the selectivity
			// estimator; the probe alone makes the effective-N denominator
			// (and every corrected statistic) too noisy.
			pilotN = opts.MinPilot
		}
	}
	if pilotN > pilot.Len() {
		err = drawPilot(pilotSampler, prog, pilotSc, pilotN-pilot.Len(), &pilot)
		if err != nil && !errors.Is(err, sampling.ErrExhausted) {
			return nil, nil, err
		}
	}
	estTotal = effTotal() // refined by the larger pilot

	// selSE is the relative standard error of the pilot's selectivity
	// estimate — the only noisy factor in the effective subpopulation
	// size. FinishReport widens extensive statistics' intervals by it;
	// it is 0 (no widening, bit-identical reports) without a filter.
	var selSE float64
	if prog != nil && prog.HasFilter() {
		if taken := pilotSampler.Taken(); taken > 0 && pilot.Len() > 0 {
			sel := float64(pilot.Len()) / float64(taken)
			if sel < 1 {
				selSE = math.Sqrt((1 - sel) / (sel * float64(taken)))
			}
		}
	}

	// Each statistic's plan is a function of the pilot, its reducer and
	// the seed alone, so the statistics are planned side by side — phase 1
	// cannot use a second core within one SSABE, but three SSABEs can.
	plans := make([]aes.Plan, len(jset))
	err = pool.ForEach(len(jset), pool.Workers(opts.Parallelism), func(i int) error {
		if forced {
			plans[i] = aes.Plan{B: opts.ForceB, N: opts.ForceN}
			return nil
		}
		var err error
		plans[i], err = aes.SSABE(pilot.Vals, estTotal, aes.Config{
			Reducer:     jset[i].Reducer,
			Sigma:       opts.Sigma,
			Tau:         opts.Tau,
			Seed:        opts.Seed + 17,
			Metrics:     env.Metrics,
			Measure:     opts.Measure,
			Key:         jset[i].Name,
			Parallelism: opts.Parallelism,
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	useFull := false
	for _, p := range plans {
		useFull = useFull || p.UseFull
	}
	if useFull {
		// "EARL informs the user that an early estimation with the
		// specified accuracy is not faster than computing f over N" —
		// §3.1: switch back to the standard workflow. One statistic
		// needing the full pass means the shared pass reads everything,
		// so the whole set takes the exact path together.
		if deferExact {
			return exactReports(jset, estTotal, true), exactLiveState(opts, plans, estTotal, size), nil
		}
		reps, _, err := runExactMulti(env, jset, path, opts, prog)
		for i := range reps {
			reps[i].EstTotalN = estTotal
		}
		return reps, exactLiveState(opts, plans, estTotal, size), err
	}

	// ---- Pipelined sampling job (§2.1's modified Hadoop flow). --------
	reps, st, err := runSampledJob(env, jset, path, opts, plans, dec, prog, estTotal, size, selSE)
	for i := range reps {
		reps[i].EstTotalN = estTotal
	}
	return reps, st, err
}

// drawPilot extends a pilot by n records, appended to out, passing
// sampling.ErrExhausted through to the caller. Under a plan, n counts
// POST-FILTER records: the pilot keeps drawing raw records through σ/π
// until n survivors arrive (or the file is dry), so sample sizes are
// planned against the filtered subpopulation — the population the
// statistics and their confidence intervals are about.
func drawPilot(s *sampling.PreMap, prog *plan.Program, sc *plan.Scratch, n int, out *colscan.Cols) error {
	if prog == nil {
		_, err := s.SampleCols(n, out)
		return err
	}
	var raw colscan.Cols
	for n > 0 {
		raw.Reset()
		got, serr := s.SampleCols(n, &raw)
		if got > 0 {
			kept, err := prog.Apply(sc, &raw, out, false)
			if err != nil {
				return err
			}
			n -= kept
		}
		if serr != nil {
			return serr
		}
	}
	return nil
}

// exactReports renders the deferred-exact placeholder reports.
func exactReports(jset []jobs.Numeric, estTotal int64, setEst bool) []Report {
	reps := make([]Report, len(jset))
	for i, job := range jset {
		reps[i] = Report{Job: job.Name, UsedFull: true}
		if setEst {
			reps[i].EstTotalN = estTotal
		}
	}
	return reps
}

// runExactMulti executes every statistic exactly over ONE full scan of
// the file (the stock-Hadoop fall-back, preserving the multi-statistic
// read-once contract) and returns the record count observed. A single
// statistic without a plan keeps the historical runExact path
// bit-for-bit; a plan run filters/derives each scanned record through
// the per-record reference evaluator, so the exact answer is over
// exactly the subpopulation the sampled path estimates.
func runExactMulti(env *Env, jset []jobs.Numeric, path string, opts Options, prog *plan.Program) ([]Report, int64, error) {
	if len(jset) == 1 && prog == nil {
		rep, err := runExact(env, jset[0], path, opts)
		if err != nil {
			return nil, 0, err
		}
		return []Report{rep}, int64(rep.SampleSize), nil
	}
	outs, n, err := runExactMultiJob(env, jset, path, opts.SplitSize, prog)
	if err != nil {
		return nil, 0, err
	}
	reps := make([]Report, len(jset))
	for i, job := range jset {
		reps[i] = Report{
			Job:         job.Name,
			Estimate:    outs[i],
			Uncorrected: outs[i],
			CILo:        outs[i],
			CIHi:        outs[i],
			B:           1,
			SampleSize:  n,
			UsedFull:    true,
			Converged:   true,
			FractionP:   1,
			Iterations:  1,
		}
	}
	return reps, int64(n), nil
}

// exactLiveState is the retained state of a run that used the exact
// path: no resamplers, no sources — a maintained query over it keeps an
// incremental exact state instead (internal/live).
func exactLiveState(opts Options, plans []aes.Plan, estTotal, syncedBytes int64) *LiveState {
	st := &LiveState{EstTotal: estTotal, SyncedBytes: syncedBytes, Opts: opts}
	for _, p := range plans {
		st.Stats = append(st.Stats, StatState{Plan: p})
	}
	return st
}

// runSampledJob drives the generic engine with a statSink: one reduce
// partition whose sink feeds every statistic from the shared sample.
func runSampledJob(env *Env, jset []jobs.Numeric, path string, opts Options, plans []aes.Plan, dec Decode, prog *plan.Program, estTotal, syncedBytes int64, selSE float64) ([]Report, *LiveState, error) {
	var initialN int64
	for _, p := range plans {
		if int64(p.N) > initialN {
			initialN = int64(p.N)
		}
	}
	maxSample := int64(opts.MaxSampleFraction * float64(estTotal))
	if maxSample < initialN {
		maxSample = initialN
	}

	sink, err := newStatSink(env, jset, plans, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := runEngine(env, path, opts, engineSpec{
		Name:     "earl-" + jobsetTag(jset),
		Sinks:    []ResultSink{sink},
		InitialN: initialN,
		MaxN:     maxSample,
		Decode:   dec,
		// The one-key degenerate case: every record routes to the single
		// reduce partition under the job-set's own name.
		Key:  jset[0].Name,
		Prog: prog,
	})
	if err != nil {
		return nil, nil, err
	}

	st := &LiveState{
		EstTotal:    estTotal,
		SyncedBytes: syncedBytes,
		Sources:     res.Sources,
		Opts:        opts,
		Generations: res.Generations,
		SelSE:       selSE,
	}
	reps := make([]Report, len(jset))
	for i, sr := range sink.stats {
		vals, err := sr.maint.Results()
		if err != nil {
			return nil, nil, fmt.Errorf("core: no results (sample never arrived): %w", err)
		}
		p := float64(sr.maint.N()) / float64(estTotal)
		rep, err := FinishReport(sr.job, opts, vals, sr.lastCV, p, selSE)
		if err != nil {
			return nil, nil, err
		}
		rep.B = sr.plan.B
		rep.SampleSize = sr.maint.N()
		rep.PlannedN = sr.plan.N
		rep.Iterations = res.Generations
		rep.FailedMaps = res.FailedMaps
		reps[i] = rep
		st.Stats = append(st.Stats, StatState{Plan: sr.plan, Maint: sr.maint})
	}
	return reps, st, nil
}
