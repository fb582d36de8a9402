package core

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/plan"
)

// ExactReport is the report of a statistic computed exactly over n
// records — the "stock Hadoop" answer EARL switches back to when early
// approximation cannot pay off (§3.1): CV 0, p = 1, nothing to estimate.
func ExactReport(job string, v float64, n int) Report {
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

// exactMapper parses each line and emits it under a single key. A
// non-nil prog routes every line through the plan's per-record
// reference evaluator instead: filtered-out lines are dropped, derived
// values replace the parsed ones, and seen counts only survivors — the
// exact fall-back computes over exactly the subpopulation the sampled
// path estimates.
type exactMapper struct {
	job  jobs.Numeric
	prog *plan.Program
	seen *atomic.Int64
}

// Map implements mr.Mapper.
func (m exactMapper) Map(off int64, line string, emit mr.Emitter) error {
	var v float64
	var err error
	if m.prog != nil {
		var keep bool
		keep, _, v, err = m.prog.EvalLine(line)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
	} else if v, err = m.job.Parse(line); err != nil {
		return err
	}
	m.seen.Add(1)
	emit.Emit("f", v)
	return nil
}

// exactMultiReducer applies every statistic of the set to the one
// collected value stream, emitting each under its index — one statistic
// or several, over one shared scan.
type exactMultiReducer struct {
	jset []jobs.Numeric
}

// Reduce implements mr.Reducer.
func (r exactMultiReducer) Reduce(key string, values []any, emit mr.Emitter) error {
	xs := make([]float64, 0, len(values))
	for _, v := range values {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("core: exact reducer got %T", v)
		}
		xs = append(xs, f)
	}
	for i, job := range r.jset {
		out, err := job.Statistic(xs)
		if err != nil {
			return err
		}
		emit.Emit(strconv.Itoa(i), out)
	}
	return nil
}

// runExactMulti executes every statistic exactly over ONE full scan of
// the file — the stock-Hadoop fall-back, preserving the multi-statistic
// read-once contract. A plan run filters/derives each scanned record
// through the per-record reference evaluator, so the exact answer is over
// exactly the subpopulation the sampled path estimates.
func runExactMulti(env *Env, jset []jobs.Numeric, path string, prog *plan.Program) ([]Report, error) {
	outs, n, err := runExactMultiJob(env, jset, path, 0, prog)
	if err != nil {
		return nil, err
	}
	reps := make([]Report, len(jset))
	for i, job := range jset {
		reps[i] = ExactReport(job.Name, outs[i], n)
	}
	return reps, nil
}

// runExactMultiJob runs every statistic of the set exactly over ONE full
// scan: a single batch MR job (the stock job, named "exact-<names>")
// parses each record once (the jobs share the input format, so the first
// job's Parse stands for all) and the reducer applies every statistic to
// the collected values.
func runExactMultiJob(env *Env, jset []jobs.Numeric, path string, splitSize int64, prog *plan.Program) ([]float64, int, error) {
	if jset[0].Parse == nil {
		return nil, 0, fmt.Errorf("core: job %q needs Parse", jset[0].Name)
	}
	for _, job := range jset {
		if job.Statistic == nil {
			return nil, 0, fmt.Errorf("core: job %q needs a Statistic for the exact path", job.Name)
		}
	}
	var seen atomic.Int64
	mjob := &mr.Job{
		Name:        "exact-" + jobsetTag(jset),
		InputPath:   path,
		Input:       env.View(),
		SplitSize:   splitSize,
		Mapper:      exactMapper{job: jset[0], prog: prog, seen: &seen},
		Reducer:     exactMultiReducer{jset: jset},
		NumReducers: 1,
	}
	res, err := env.Engine.Run(mjob)
	if err != nil {
		return nil, 0, err
	}
	if len(res.Output) == 0 && prog != nil {
		return nil, 0, fmt.Errorf("core: no records matched filter")
	}
	if len(res.Output) != len(jset) {
		return nil, 0, fmt.Errorf("core: exact job emitted %d results for %d statistics", len(res.Output), len(jset))
	}
	outs := make([]float64, len(jset))
	for _, kv := range res.Output {
		i, err := strconv.Atoi(kv.Key)
		if err != nil || i < 0 || i >= len(jset) {
			return nil, 0, fmt.Errorf("core: exact job emitted key %q", kv.Key)
		}
		v, ok := kv.Value.(float64)
		if !ok {
			return nil, 0, fmt.Errorf("core: exact result has type %T", kv.Value)
		}
		outs[i] = v
	}
	return outs, int(seen.Load()), nil
}

// RunExactJob runs the user job exactly over every record of path on the
// batch engine and returns the result plus the record count processed —
// the one-statistic stock job, exposed for the stock-Hadoop baselines of
// the benchmark harness.
func RunExactJob(env *Env, job jobs.Numeric, path string, splitSize int64) (float64, int, error) {
	outs, n, err := runExactMultiJob(env, []jobs.Numeric{job}, path, splitSize, nil)
	if err != nil {
		return 0, 0, err
	}
	return outs[0], n, nil
}
