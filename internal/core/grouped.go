package core

import (
	"errors"

	"repro/internal/colscan"
	"repro/internal/delta"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/sampling"
)

// Grouped runs are a thin adapter over the generic engine: the records'
// own keys route them to per-partition groupSinks (one resample set per
// group), and only the planning step — sizing the initial sample from
// the pilot's distinct-key count — is grouped-specific.

// RunGrouped is EARL for per-key aggregates — the natural MapReduce
// workload the paper's driver treats as a single global statistic. Each
// reduce partition maintains one resample set per group key; the job
// terminates when every group's error is at or below σ. Expansion uses
// the same round barrier as Run, with each reducer publishing the worst
// (largest) cv across its groups.
//
// Planning note: SSABE assumes one statistic, so grouped mode sizes its
// initial sample from the pilot's distinct-key count (≈64 records per
// group, floored at MinPilot) and relies on the expansion loop — a
// documented extension beyond the paper.
func RunGrouped(env *Env, job jobs.Numeric, route Route, path string, opts Options) (GroupedReport, error) {
	rep, _, err := RunGroupedLive(env, job, route, path, opts, nil)
	return rep, err
}

// GroupedLiveState is the retained working state of one grouped sampled
// run: every group's delta-maintained resample set (flattened across
// reduce partitions) plus the per-mapper sampling streams — what a
// grouped maintained query needs to stay fresh under appended data.
type GroupedLiveState struct {
	Maints      map[string]*delta.Maintainer
	Sources     []RecordSource
	EstTotal    int64
	SyncedBytes int64
	B           int
	Opts        Options // with defaults applied
}

// RunGroupedLive is the grouped driver: RunGrouped, additionally
// returning the run's retained state for maintained (continuous-ingest)
// queries. A non-nil prog is a compiled query plan and replaces the
// route entirely: records decode under the plan's input format, the
// pushed-down σ/π/γ kernels transform them, and the emitted group keys
// are the plan's labels (opts must then already carry the spec's knobs —
// PreparePlan's Opts).
func RunGroupedLive(env *Env, job jobs.Numeric, route Route, path string, opts Options, prog *plan.Program) (GroupedReport, *GroupedLiveState, error) {
	opts = opts.withDefaults()
	if env == nil || env.FS == nil || env.Engine == nil {
		return GroupedReport{}, nil, errors.New("core: incomplete Env")
	}
	if job.Reducer == nil {
		return GroupedReport{}, nil, errors.New("core: job needs a Reducer")
	}
	dec, err := GroupedDecode(route, prog)
	if err != nil {
		return GroupedReport{}, nil, err
	}
	size, err := env.View().Stat(path)
	if err != nil {
		return GroupedReport{}, nil, err
	}

	// Pilot: estimate the distinct-key count to size the initial target.
	pilotSampler, err := sampling.NewPreMap(env.View(), path, opts.SplitSize, opts.Seed)
	if err != nil {
		return GroupedReport{}, nil, err
	}
	if err := dec.enable(pilotSampler, env.Scan); err != nil {
		return GroupedReport{}, nil, err
	}
	// Draw until 512 records survive the plan (or the file is dry): the
	// distinct keys — and the selectivity — both come from the
	// post-filter stream the run is actually about.
	var pilot colscan.Cols
	if err := drawPilot(pilotSampler, prog, plan.NewScratch(), 512, &pilot); err != nil && !errors.Is(err, sampling.ErrExhausted) {
		return GroupedReport{}, nil, err
	}
	kept := pilot.Len()
	keys := map[string]struct{}{}
	for _, k := range pilot.Keys {
		keys[k] = struct{}{}
	}
	// Pilot reads are charged like any other mapper delivery (see the
	// scalar driver) so grouped runs account their planning cost too.
	env.Metrics.RecordsRead.Add(int64(pilotSampler.Taken()))
	if len(keys) == 0 {
		if prog != nil && prog.HasFilter() {
			return GroupedReport{}, nil, errors.New("core: no records matched filter")
		}
		return GroupedReport{}, nil, errors.New("core: no records found")
	}
	estTotal := pilotSampler.EstimatedTotalRecords()
	if prog != nil && prog.HasFilter() {
		// Effective (subpopulation) total, as in the scalar driver.
		if taken := pilotSampler.Taken(); taken > 0 {
			estTotal = int64(float64(estTotal) * float64(kept) / float64(taken))
			if estTotal < 1 {
				estTotal = 1
			}
		}
	}

	b := opts.ForceB
	if b <= 1 {
		b = 30
	}
	initialN := opts.ForceN
	if initialN <= 0 {
		initialN = 64 * len(keys)
		if initialN < opts.MinPilot {
			initialN = opts.MinPilot
		}
	}
	maxSample := int64(opts.MaxSampleFraction * float64(estTotal))
	if maxSample < int64(initialN) {
		maxSample = int64(initialN)
	}
	r := 2 // grouped mode exercises the partitioned path
	if r > len(keys) {
		r = 1
	}
	parts := make([]*groupSink, r)
	sinks := make([]ResultSink, r)
	for p := range parts {
		parts[p] = newGroupSink(env, job, b, opts)
		sinks[p] = parts[p]
	}

	res, err := runEngine(env, path, opts, engineSpec{
		Name:     "earl-grouped-" + job.Name,
		Sinks:    sinks,
		InitialN: int64(initialN),
		MaxN:     maxSample,
		Decode:   dec,
		Keyed:    true,
		Prog:     prog,
	})
	if err != nil {
		return GroupedReport{}, nil, err
	}

	maints := map[string]*delta.Maintainer{}
	for _, ps := range parts {
		for key, mt := range ps.maints {
			maints[key] = mt
		}
	}
	rep, err := GroupedReportFrom(job, opts, maints)
	if err != nil {
		return rep, nil, err
	}
	rep.Iterations = res.Generations
	rep.FailedMaps = res.FailedMaps
	st := &GroupedLiveState{
		Maints:      maints,
		Sources:     res.Sources,
		EstTotal:    estTotal,
		SyncedBytes: size,
		B:           b,
		Opts:        opts,
	}
	return rep, st, nil
}
