package core

import (
	"errors"
	"fmt"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/simcost"
)

// exactReport is the report of a statistic computed exactly over n
// records — the "stock Hadoop" answer EARL switches back to when early
// approximation cannot pay off (§3.1): CV 0, p = 1, nothing to estimate.
func exactReport(job string, v float64, n int) Report {
	return Report{
		Job:         job,
		Estimate:    v,
		Uncorrected: v,
		CILo:        v,
		CIHi:        v,
		B:           1,
		SampleSize:  n,
		UsedFull:    true,
		Converged:   true,
		FractionP:   1,
		Iterations:  1,
	}
}

// exactKey is the one key the stock job's mapper emits every value
// under, so runExact charges a survivor's shuffle len(exactKey) + 8
// bytes, as that job would.
const exactKey = "f"

// RunExactJob answers job exactly over every record of path — the
// stock-Hadoop answer and Figs. 5–6's stock baseline — and returns it
// with the records processed. It is the exact fall-back's column pass
// (runExact) over splits of splitSize bytes (the block size if 0), so
// it answers and charges what the stock line-at-a-time MR job would.
// Handed the cluster's Env, it opens a run: the pass reads one commit.
func RunExactJob(env *Env, job jobs.Numeric, path string, splitSize int64) (float64, int, error) {
	if job.Parse == nil || job.Statistic == nil {
		return 0, 0, fmt.Errorf("core: job %q needs Parse and a Statistic for the exact path", job.Name)
	}
	env, release := env.openRun()
	defer release()
	reps, err := runExact(env, []jobs.Numeric{job}, path, splitSize, scalarDecode(job, nil), nil)
	if err != nil {
		return 0, 0, err
	}
	return reps[0].Estimate, reps[0].SampleSize, nil
}

// runExact is the one-shot exact fall-back (§3.1's "standard workflow"):
// one column scan of the whole file (scanExact), then every statistic of
// the set applied in turn to the one column of survivors in file order,
// as the stock job's reducer applied them to its collected values. Its
// modelled cost is that stock job's by construction: scanExact charges
// the map tasks' reads, and the task counters are charged here in
// closed form — one job, one map task per split, one reduce task, and
// every survivor mapped, shuffled under exactKey and reduced.
func runExact(env *Env, jset []jobs.Numeric, path string, splitSize int64, dec decode, prog *plan.Program) ([]Report, error) {
	for _, job := range jset {
		if job.Statistic == nil {
			return nil, fmt.Errorf("core: job %q needs a Statistic for the exact path", job.Name)
		}
	}
	splits, err := env.View().Splits(path, splitSize)
	if err != nil {
		return nil, err
	}
	vals, err := scanExact(env, path, splits, dec, prog)
	if err != nil {
		return nil, err
	}
	kept := int64(len(vals))
	env.Metrics.Charge(simcost.Snapshot{
		JobStartups:    1,
		MapTasks:       int64(len(splits)),
		ReduceTasks:    1,
		RecordsMapped:  kept,
		RecordsReduced: kept,
		BytesShuffled:  kept * (int64(len(exactKey)) + valueBytes),
	})
	if kept == 0 {
		if prog != nil && prog.HasFilter() {
			return nil, errors.New("core: no records matched filter")
		}
		return nil, errors.New("core: no records found")
	}
	reps := make([]Report, len(jset))
	for i, job := range jset {
		v, err := job.Statistic(vals)
		if err != nil {
			return nil, err
		}
		reps[i] = exactReport(job.Name, v, len(vals))
	}
	return reps, nil
}

// scanExact is the exact fall-back's one pass, shared by the one-shot
// (runExact) and a kept exact run's folds (exactSink): every record of
// splits — of path, read through env's data view — in file order,
// through prog's σ/π when prog is non-nil. It returns the survivors'
// values as a column the caller owns: a statistic may sort it in place.
//
// A split whose decoded block is resident in env.Scan is taken from
// there: Peek, never a decode or an insert, so the scan leaves the cache
// holding what it held, and the holds are given back when the pass
// ends. Any other split is read through its own LineReader and decoded
// by dec. Either way the reads are charged as a
// LineReader over the split charges them — a resident one in closed
// form (dfs.LineScanCost) — and every record to RecordsRead.
func scanExact(env *Env, path string, splits []dfs.Split, dec decode, prog *plan.Program) ([]float64, error) {
	view := env.View()
	size, err := view.Stat(path)
	if err != nil {
		return nil, err
	}
	blks, resident, err := residentBlocks(env, path, splits, dec)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, blk := range blks {
			blk.Release()
		}
	}()
	var sc *plan.Scratch
	if prog != nil {
		sc = plan.NewScratch()
	}
	out := colscan.Cols{Vals: make([]float64, 0, resident)}
	var raw, shared colscan.Cols // a read split's records; a resident block's, read-only
	var read int64
	for i, sp := range splits {
		in := &raw
		if blk := blks[i]; blk != nil {
			n := blk.NumRecords()
			end := blk.Start(n-1) + int64(blk.RecLen(n-1)) // the last record's newline, or EOF
			bytes, seeks := dfs.LineScanCost(sp, size, min(end+1, size))
			env.Metrics.Charge(simcost.Snapshot{BytesRead: bytes, DiskSeeks: seeks})
			shared.Vals, shared.Keys = blk.Values(), shared.Keys[:0]
			if dict := blk.Dict(); dict != nil {
				for _, id := range blk.KeyIDs() {
					shared.Keys = append(shared.Keys, dict[id])
				}
			}
			in = &shared
		} else {
			raw.Reset()
			if err := dec.scanSplit(view, sp, &raw); err != nil {
				return nil, err
			}
		}
		read += int64(in.Len())
		if prog == nil {
			out.Vals = append(out.Vals, in.Vals...)
		} else if _, err := prog.Apply(sc, in, &out, false); err != nil {
			return nil, err
		}
	}
	env.Metrics.Charge(simcost.Snapshot{RecordsRead: read})
	return out.Vals, nil
}

// residentBlocks peeks env.Scan for each split's decoded block, and
// counts the records they hold; the caller releases the blocks. A split
// gets nil when the records are a custom parser's (they never enter the
// cache), when no block is resident, and when the block holds no
// record: a split inside one record, whose read its block cannot place.
func residentBlocks(env *Env, path string, splits []dfs.Split, dec decode) ([]*colscan.Block, int, error) {
	blks := make([]*colscan.Block, len(splits))
	if dec.Parser != nil {
		return blks, 0, nil
	}
	version, err := env.View().Version(path)
	if err != nil {
		return nil, 0, err
	}
	records := 0
	for i, sp := range splits {
		key := colscan.BlockKey{Path: path, Version: version, Offset: sp.Offset, Length: sp.Length, Format: dec.Format}
		if blk, ok := env.Scan.Peek(key); ok && blk.NumRecords() > 0 {
			blks[i] = blk
			records += blk.NumRecords()
		} else if ok {
			blk.Release()
		}
	}
	return blks, records, nil
}
