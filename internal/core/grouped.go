package core

import (
	"errors"
	"fmt"

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
	rep, _, err := RunGroupedLive(env, job, route, path, opts)
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

// RunGroupedLive is RunGrouped, additionally returning the run's retained
// state for maintained (continuous-ingest) queries.
func RunGroupedLive(env *Env, job jobs.Numeric, route Route, path string, opts Options) (GroupedReport, *GroupedLiveState, error) {
	return runGroupedLive(env, job, route, path, opts, nil)
}

// runGroupedLive is the grouped driver. A non-nil prog replaces the
// route entirely: records decode under the plan's input format, the
// pushed-down σ/π/γ kernels transform them, and the emitted group keys
// are the plan's labels — route may be zero in that case.
func runGroupedLive(env *Env, job jobs.Numeric, route Route, path string, opts Options, prog *plan.Program) (GroupedReport, *GroupedLiveState, error) {
	opts = opts.withDefaults()
	if env == nil || env.FS == nil || env.Engine == nil {
		return GroupedReport{}, nil, errors.New("core: incomplete Env")
	}
	if job.Reducer == nil {
		return GroupedReport{}, nil, errors.New("core: job needs a Reducer")
	}
	if route.Parse == nil && prog == nil {
		return GroupedReport{}, nil, errors.New("core: RunGrouped needs a Route")
	}
	format := route.Format
	routeParse := route.Parse
	if prog != nil {
		format = prog.InputFormat()
		routeParse = func(string) (string, float64, error) {
			return "", 0, errors.New("core: plan runs use the columnar path")
		}
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
	if format != colscan.FormatNone {
		if err := pilotSampler.EnableColumnar(env.Scan, format); err != nil {
			return GroupedReport{}, nil, err
		}
	}
	keys := map[string]struct{}{}
	kept := 0
	switch {
	case prog != nil:
		// Draw raw records through the plan until 512 survive (or the
		// file is dry): the distinct labels — and the selectivity — both
		// come from the post-filter stream the run is actually about.
		sc := plan.NewScratch()
		var raw, out colscan.Cols
		for need := 512; need > 0; {
			raw.Reset()
			got, serr := pilotSampler.SampleCols(need, &raw)
			if got > 0 {
				k, aerr := prog.Apply(sc, &raw, &out, false)
				if aerr != nil {
					return GroupedReport{}, nil, aerr
				}
				need -= k
			}
			if errors.Is(serr, sampling.ErrExhausted) {
				break
			} else if serr != nil {
				return GroupedReport{}, nil, serr
			}
		}
		kept = out.Len()
		for _, k := range out.Keys {
			keys[k] = struct{}{}
		}
	case format != colscan.FormatNone:
		var cols colscan.Cols
		if _, err := pilotSampler.SampleCols(512, &cols); err != nil && !errors.Is(err, sampling.ErrExhausted) {
			return GroupedReport{}, nil, err
		}
		for _, k := range cols.Keys {
			keys[k] = struct{}{}
		}
	default:
		probe, err := pilotSampler.Sample(512)
		if err != nil && !errors.Is(err, sampling.ErrExhausted) {
			return GroupedReport{}, nil, err
		}
		for _, r := range probe {
			k, _, perr := route.Parse(r.Line)
			if perr != nil {
				return GroupedReport{}, nil, fmt.Errorf("core: pilot parse: %w", perr)
			}
			keys[k] = struct{}{}
		}
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
		Route:    routeParse,
		Sinks:    sinks,
		InitialN: int64(initialN),
		MaxN:     maxSample,
		Format:   format,
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
