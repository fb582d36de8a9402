package main

import (
	"errors"
	"sort"
	"sync"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/plan"
	"repro/internal/sampling"
)

// This file replays one answered op's phases through the layers'
// public functions, on the same cluster, data and seed, each as a
// child span of the op's core.runplan span. The replay mirrors what
// core's drivers do (pilot → SSABE → draw or pool fill → delta grow);
// what it cannot reach from outside — mr scheduling, the error-file
// mailbox, polling, the watchdog, report assembly — is the remainder
// the trace reports as core.coord_ms.

// mappers is the engine's default long-lived sampling mappers
// (core.Options.NumMappers); the replayed pool fill runs as many.
const mappers = 4

// replayed is what a replay learned that the probes reuse.
type replayed struct {
	pilot   []float64
	b       int   // resamples of the first statistic (30 for grouped runs)
	updates int64 // delta state operations
}

// replay dispatches on the plan's shape.
func (f *fixture) replay(rec *recorder, parent, op int, pq *core.PlannedQuery, res opResult) (replayed, error) {
	switch {
	case pq.Grouped():
		return f.replayGrouped(rec, parent, op, pq, res)
	case pq.Prog != nil:
		return replayed{}, errors.New("no replay written for filtered scalar plans")
	}
	return f.replayScalar(rec, parent, op, pq, res)
}

// replayScalar mirrors core's scalar pre-map driver.
func (f *fixture) replayScalar(rec *recorder, parent, op int, pq *core.PlannedQuery, res opResult) (replayed, error) {
	view, path, seed := f.env.View(), pq.Spec.Path, pq.Spec.Seed
	format := pq.Jobs[0].ScanFormat
	var out replayed
	var estTotal int64

	_, err := rec.time("sampling.pilot", parent, op, func() error {
		s, err := sampling.NewPreMap(view, path, 0, seed)
		if err != nil {
			return err
		}
		if err := s.EnableColumnar(f.env.Scan, format); err != nil {
			return err
		}
		var cols colscan.Cols
		if _, err := s.SampleCols(256, &cols); err != nil {
			return err
		}
		// The driver's pilot size: 1% of the estimated records, within
		// [512, 65536] (core.Options defaults).
		n := min(max(int(0.01*float64(s.EstimatedTotalRecords())), 512), 65536)
		if _, err := s.SampleCols(n-cols.Len(), &cols); err != nil && !errors.Is(err, sampling.ErrExhausted) {
			return err
		}
		estTotal = s.EstimatedTotalRecords()
		out.pilot = cols.Vals
		return nil
	})
	if err != nil {
		return out, err
	}

	plans := make([]aes.Plan, len(pq.Jobs))
	_, err = rec.time("aes.ssabe", parent, op, func() error {
		for i, job := range pq.Jobs {
			var err error
			plans[i], err = aes.SSABE(out.pilot, estTotal, aes.Config{
				Reducer: job.Reducer, Sigma: pq.Spec.Sigma, Seed: seed + 17, Key: job.Name,
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.b = plans[0].B
	if res.reports[0].UsedFull {
		return out, nil // the exact pass has no sampled phases to replay
	}

	var sample colscan.Cols
	n := res.reports[0].SampleSize
	_, err = rec.time("sampling.draw", parent, op, func() error {
		s, err := sampling.NewPreMap(view, path, 0, seed+1)
		if err != nil {
			return err
		}
		if err := s.EnableColumnar(f.env.Scan, format); err != nil {
			return err
		}
		_, err = s.SampleCols(n, &sample)
		return err
	})
	if err != nil {
		return out, err
	}

	_, err = rec.time("delta.grow", parent, op, func() error {
		first := min(res.reports[0].PlannedN, len(sample.Vals))
		for i, job := range pq.Jobs {
			u, err := growSorted(job.Name, i, plans[i].B, pq, sample.Vals[:first], sample.Vals[first:])
			if err != nil {
				return err
			}
			out.updates += u
		}
		return nil
	})
	return out, err
}

// growSorted feeds a maintainer the generations the engine would: each
// sorted ascending, the planned sample first, the expansion after. It
// returns the state operations performed.
func growSorted(key string, stat, b int, pq *core.PlannedQuery, gens ...[]float64) (int64, error) {
	m, err := delta.New(delta.Config{Reducer: pq.Jobs[stat].Reducer, B: max(b, 2), Seed: pq.Spec.Seed, Key: key})
	if err != nil {
		return 0, err
	}
	for _, g := range gens {
		if len(g) == 0 {
			continue
		}
		g = append([]float64(nil), g...)
		sort.Float64s(g)
		if err := m.Grow(g); err != nil {
			return 0, err
		}
	}
	if _, err := m.Results(); err != nil {
		return 0, err
	}
	return m.Updates(), nil
}

// replayGrouped mirrors core's grouped driver on a post-map plan: the
// pilot is drawn through σ/π until 512 records survive, every split is
// loaded, filtered and pooled by as many concurrent mappers as the
// engine runs, the sample is drawn from the pools through π/γ, and one
// maintainer per group is grown.
func (f *fixture) replayGrouped(rec *recorder, parent, op int, pq *core.PlannedQuery, res opResult) (replayed, error) {
	view, path, seed, prog := f.env.View(), pq.Spec.Path, pq.Spec.Seed, pq.Prog
	format := prog.InputFormat()
	out := replayed{b: 30} // the grouped driver's fixed resample count

	_, err := rec.time("sampling.pilot", parent, op, func() error {
		s, err := sampling.NewPreMap(view, path, 0, seed)
		if err != nil {
			return err
		}
		if err := s.EnableColumnar(f.env.Scan, format); err != nil {
			return err
		}
		sc := plan.NewScratch()
		var raw, kept colscan.Cols
		for need := 512; need > 0; {
			raw.Reset()
			got, serr := s.SampleCols(need, &raw)
			if got > 0 {
				k, err := prog.Apply(sc, &raw, &kept, false)
				if err != nil {
					return err
				}
				need -= k
			}
			if serr != nil {
				if errors.Is(serr, sampling.ErrExhausted) {
					break
				}
				return serr
			}
		}
		out.pilot = kept.Vals
		return nil
	})
	if err != nil {
		return out, err
	}

	splits, err := view.Splits(path, 0)
	if err != nil {
		return out, err
	}
	version, err := view.Version(path)
	if err != nil {
		return out, err
	}
	size, err := view.Stat(path)
	if err != nil {
		return out, err
	}
	pools := make([]*sampling.PostMapCols, mappers)
	fill := rec.reserve("sampling.poolfill", parent, op)
	var wg sync.WaitGroup
	errs := make([]error, mappers)
	for m := range pools {
		pools[m] = sampling.NewPostMapCols(seed + uint64(m)*7919)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := plan.NewScratch()
			var keep []int32
			for i := m; i < len(splits); i += mappers {
				sp := splits[i]
				var blk *colscan.Block
				_, errs[m] = rec.time("colseg.load", fill, op, func() (err error) {
					blk, err = colscan.LoadSplit(f.env.Scan, view, path, version, size, sp.Offset, sp.Length, format)
					return err
				})
				if errs[m] != nil {
					return
				}
				_, _ = rec.time("plan.keep", fill, op, func() error { // KeepBlock cannot fail
					keep = prog.KeepBlock(sc, blk, keep[:0])
					return nil
				})
				pools[m].AddBlockKept(blk, keep)
			}
		}()
	}
	wg.Wait()
	rec.finish(fill)
	if err := errors.Join(errs...); err != nil {
		return out, err
	}

	var sample colscan.Cols
	_, err = rec.time("sampling.draw", parent, op, func() error {
		sc := plan.NewScratch()
		var raw colscan.Cols
		for _, p := range pools {
			raw.Reset()
			if _, err := p.DrawCols(res.groups.SampleSize/mappers, &raw); err != nil && !errors.Is(err, sampling.ErrExhausted) {
				return err
			}
			if _, err := prog.Apply(sc, &raw, &sample, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	_, err = rec.time("delta.grow", parent, op, func() error {
		byKey := map[string][]float64{}
		for i, k := range sample.Keys {
			byKey[k] = append(byKey[k], sample.Vals[i])
		}
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vals := byKey[k]
			half := len(vals) / 2 // the engine's doubling: the second round adds as much again
			u, err := growSorted(k, 0, out.b, pq, vals[:half], vals[half:])
			if err != nil {
				return err
			}
			out.updates += u
		}
		return nil
	})
	return out, err
}
