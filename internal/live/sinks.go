package live

import (
	"math"
	"sort"

	"repro/internal/colscan"
	"repro/internal/core"
)

// The two maintSink implementations behind the shared refresh core:
// statFold (Query — every record feeds every statistic's resample set)
// and groupFold (GroupedQuery — records route by key into per-group
// resample sets), mirroring internal/core's statSink/groupSink.

// statFold is Query's maintSink: every drawn record feeds every
// statistic's resample set, in canonical (sorted) order, mirroring the
// in-run statSink.
type statFold Query

// foldCols copies one delta batch into pooled scratch (mu is held:
// refreshes on a long-lived watch fold many small deltas, and the
// maintainers batch-apply the slice without retaining it) and
// batch-grows every statistic's resample set.
//
//earl:hotpath
func (s *statFold) foldCols(cols *colscan.Cols) error {
	q := (*Query)(s)
	vals := q.scratch.Take(cols.Len())
	vals = append(vals, cols.Vals...)
	sort.Float64s(vals)
	for _, st := range q.stats {
		if err := st.Maint.Grow(vals); err != nil {
			return err
		}
	}
	q.generations++
	return nil
}

func (s *statFold) size() int64 { return int64(s.stats[0].Maint.N()) }

func (s *statFold) errEstimate() float64 {
	q := (*Query)(s)
	worst := 0.0
	for _, st := range q.stats {
		cv := measureOf(q.opts, st.Maint)
		if cv > worst {
			worst = cv
		}
	}
	return worst
}

// measureOf applies the configured error measure to one resample set's
// result distribution (+Inf on degenerate distributions, like the
// in-run sink).
func measureOf(opts core.Options, maint core.Resampler) float64 {
	vals, err := maint.Results()
	if err != nil {
		return math.Inf(1)
	}
	cv, err := opts.Measure(vals)
	if err != nil {
		return math.Inf(1)
	}
	return cv
}

// groupFold is GroupedQuery's maintSink: drawn records are routed by
// key and folded into per-group resample sets in canonical order
// (sorted keys, sorted deltas — see the in-run engine's determinism
// contract), with brand-new keys opened under their key-derived seeds.
type groupFold GroupedQuery

// foldCols routes one delta batch into the query's reusable scratch (mu
// is held): buffers of keys seen in earlier folds are emptied and
// refilled, mirroring the scalar path's scratch reuse.
//
//earl:hotpath
func (g *groupFold) foldCols(cols *colscan.Cols) error {
	q := (*GroupedQuery)(g)
	groups := q.takeGroupScratch()
	for i, key := range cols.Keys {
		groups[key] = append(groups[key], cols.Vals[i])
	}
	return g.growGroups(groups)
}

// takeGroupScratch returns the reusable per-key routing buffers, emptied.
func (q *GroupedQuery) takeGroupScratch() map[string][]float64 {
	if q.groupScratch == nil {
		q.groupScratch = map[string][]float64{}
	}
	groups := q.groupScratch
	for key, vals := range groups {
		groups[key] = vals[:0]
	}
	return groups
}

// growGroups folds the routed delta into per-group resample sets in
// canonical order (sorted keys, sorted deltas).
func (g *groupFold) growGroups(groups map[string][]float64) error {
	q := (*GroupedQuery)(g)
	keys := q.keyScratch[:0]
	for key, vals := range groups {
		if len(vals) > 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	q.keyScratch = keys
	for _, key := range keys {
		mt, ok := q.maints[key]
		if !ok {
			var err error
			mt, err = core.NewGroupMaintainer(q.env, q.job, key, q.b, q.opts)
			if err != nil {
				return err
			}
			q.maints[key] = mt
		}
		vals := groups[key]
		sort.Float64s(vals)
		if err := mt.Grow(vals); err != nil {
			return err
		}
	}
	return nil
}

func (g *groupFold) size() int64 {
	var n int64
	for _, mt := range g.maints {
		n += int64(mt.N())
	}
	return n
}

// errEstimate returns the largest error across groups, +Inf with no
// groups or while any group's sample is below core.MinGroupSample — the
// same floor the in-run sink applies, so a brand-new key appearing in
// appended data with a deceptively tight tiny sample still forces
// expansion instead of being reported converged.
func (g *groupFold) errEstimate() float64 {
	if len(g.maints) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, mt := range g.maints {
		if mt.N() < core.MinGroupSample {
			return math.Inf(1)
		}
		cv, err := mt.CV()
		if err != nil {
			return math.Inf(1)
		}
		if cv > worst {
			worst = cv
		}
	}
	return worst
}
