package mr

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dfs"
	"repro/internal/pool"
	"repro/internal/simcost"
)

// Engine executes jobs against a DFS and a cluster, charging every task
// and record to Metrics (nothing, when nil). It is a plain value: a run
// that keeps its own ledger copies the engine and sets Metrics.
type Engine struct {
	FS      *dfs.FileSystem
	Cluster *Cluster
	Metrics *simcost.Metrics
	Fault   FaultInjector
}

// NewEngine builds an engine over fs with the paper's 5-node topology.
func NewEngine(fs *dfs.FileSystem, metrics *simcost.Metrics) (*Engine, error) {
	cl, err := NewCluster(5)
	if err != nil {
		return nil, err
	}
	return &Engine{FS: fs, Cluster: cl, Metrics: metrics}, nil
}

// errNoCluster is what an engine without a Cluster answers every job.
var errNoCluster = errors.New("mr: engine has no Cluster")

// Run executes job in batch mode — the stock-Hadoop flow the paper
// compares against: all map tasks run to completion, their output is
// shuffled, then reduce tasks run. Returns reduce output ordered by
// (partition, key).
func (e *Engine) Run(job *Job) (*Result, error) {
	if e.Cluster == nil {
		return nil, errNoCluster
	}
	if err := job.validate(); err != nil {
		return nil, err
	}
	e.Metrics.Charge(simcost.Snapshot{JobStartups: 1})

	mapOut, err := e.runMapPhase(job)
	if err != nil {
		return nil, err
	}
	return e.runReducePhase(job, mapOut)
}

// mapEmitter hash-partitions map output into per-reducer buffers.
type mapEmitter struct {
	parts [][]KV
}

// Emit implements Emitter.
func (m *mapEmitter) Emit(key string, value any) {
	p := HashPartition(key, len(m.parts))
	m.parts[p] = append(m.parts[p], KV{Key: key, Value: value})
}

func (e *Engine) runMapPhase(job *Job) ([][][]KV, error) {
	if e.FS == nil {
		return nil, fmt.Errorf("mr: job %q has InputPath but engine has no FS", job.Name)
	}
	splits, err := e.FS.Splits(job.InputPath, job.SplitSize)
	if err != nil {
		return nil, err
	}
	r := job.numReducers()
	outputs := make([][][]KV, len(splits)) // [task][partition][]KV
	err = pool.ForEach(len(splits), pool.Workers(0), func(i int) (err error) {
		outputs[i], err = e.runMapTask(job, splits[i], i, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}

func (e *Engine) runMapTask(job *Job, sp dfs.Split, idx, r int) ([][]KV, error) {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		nid, err := e.Cluster.place()
		if err != nil {
			return nil, err
		}
		e.Metrics.Charge(simcost.Snapshot{MapTasks: 1})
		info := TaskInfo{Job: job.Name, Kind: MapTask, Index: idx, Attempt: attempt, Node: nid}
		out, err := e.mapAttempt(job, sp, info, r)
		if err == nil {
			// Charge shuffle traffic for the surviving attempt's output.
			var bytes int64
			for _, part := range out {
				for _, kv := range part {
					bytes += int64(len(kv.Key)) + ValueSize(kv.Value)
				}
			}
			e.Metrics.Charge(simcost.Snapshot{BytesShuffled: bytes})
			return out, nil
		}
		lastErr = err
		e.Metrics.Charge(simcost.Snapshot{TaskRestarts: 1})
	}
	return nil, fmt.Errorf("%w: map[%d] of %q: %w", ErrTooManyFailures, idx, job.Name, lastErr)
}

func (e *Engine) mapAttempt(job *Job, sp dfs.Split, info TaskInfo, r int) ([][]KV, error) {
	if e.Fault != nil && e.Fault.ShouldFail(info) {
		return nil, fmt.Errorf("mr: injected failure at %s", info)
	}
	em := &mapEmitter{parts: make([][]KV, r)}
	rd, err := e.FS.NewLineReader(sp, 0)
	if err != nil {
		return nil, err
	}
	const livenessEvery = 256
	for seen := 1; rd.Next(); seen++ {
		if seen%livenessEvery == 0 && !e.Cluster.NodeAlive(info.Node) {
			return nil, fmt.Errorf("mr: node %d died during %s", info.Node, info)
		}
		before := recordCount(em)
		if err := job.Mapper.Map(rd.RecordOffset(), rd.Text(), em); err != nil {
			e.Metrics.Charge(simcost.Snapshot{RecordsRead: 1})
			return nil, fmt.Errorf("mr: mapper at %s offset %d: %w", info, rd.RecordOffset(), err)
		}
		e.Metrics.Charge(simcost.Snapshot{RecordsRead: 1, RecordsMapped: recordCount(em) - before})
	}
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	if job.Combiner != nil {
		return e.combine(job, em.parts)
	}
	return em.parts, nil
}

func recordCount(em *mapEmitter) int64 {
	var n int64
	for _, p := range em.parts {
		n += int64(len(p))
	}
	return n
}

// combine runs the job's combiner over each partition of one map task's
// output, grouping by key first (Hadoop combines spills the same way).
func (e *Engine) combine(job *Job, parts [][]KV) ([][]KV, error) {
	out := make([][]KV, len(parts))
	for pi, part := range parts {
		grouped := groupByKey(part)
		em := &sliceEmitter{}
		for _, g := range grouped {
			if err := job.Combiner.Combine(g.key, g.values, em); err != nil {
				return nil, fmt.Errorf("mr: combiner: %w", err)
			}
		}
		out[pi] = em.kvs
	}
	return out, nil
}

type sliceEmitter struct {
	kvs []KV
}

// Emit implements Emitter.
func (s *sliceEmitter) Emit(key string, value any) {
	s.kvs = append(s.kvs, KV{Key: key, Value: value})
}

type keyGroup struct {
	key    string
	values []any
}

// groupByKey groups kvs by key, with groups ordered by key and values in
// arrival order (Hadoop's sort-merge guarantees key order, not value
// order).
func groupByKey(kvs []KV) []keyGroup {
	idx := make(map[string]int)
	var groups []keyGroup
	for _, kv := range kvs {
		gi, ok := idx[kv.Key]
		if !ok {
			gi = len(groups)
			idx[kv.Key] = gi
			groups = append(groups, keyGroup{key: kv.Key})
		}
		groups[gi].values = append(groups[gi].values, kv.Value)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	return groups
}

func (e *Engine) runReducePhase(job *Job, mapOut [][][]KV) (*Result, error) {
	r := job.numReducers()
	partOutputs := make([][]KV, r)
	err := pool.ForEach(r, pool.Workers(0), func(part int) (err error) {
		// Gather this partition's pairs from every map task, in task
		// order for determinism.
		var in []KV
		for _, taskOut := range mapOut {
			in = append(in, taskOut[part]...)
		}
		partOutputs[part], err = e.runReduceTask(job, part, in)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, po := range partOutputs {
		res.Output = append(res.Output, po...)
	}
	return res, nil
}

func (e *Engine) runReduceTask(job *Job, part int, in []KV) ([]KV, error) {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		nid, err := e.Cluster.place()
		if err != nil {
			return nil, err
		}
		e.Metrics.Charge(simcost.Snapshot{ReduceTasks: 1})
		info := TaskInfo{Job: job.Name, Kind: ReduceTask, Index: part, Attempt: attempt, Node: nid}
		out, err := e.reduceAttempt(job, info, in)
		if err == nil {
			return out, nil
		}
		lastErr = err
		e.Metrics.Charge(simcost.Snapshot{TaskRestarts: 1})
	}
	return nil, fmt.Errorf("%w: reduce[%d] of %q: %w", ErrTooManyFailures, part, job.Name, lastErr)
}

func (e *Engine) reduceAttempt(job *Job, info TaskInfo, in []KV) ([]KV, error) {
	if e.Fault != nil && e.Fault.ShouldFail(info) {
		return nil, fmt.Errorf("mr: injected failure at %s", info)
	}
	groups := groupByKey(in)
	em := &sliceEmitter{}
	seen := 0
	for _, g := range groups {
		seen += len(g.values)
		if seen >= 256 {
			seen = 0
			if !e.Cluster.NodeAlive(info.Node) {
				return nil, fmt.Errorf("mr: node %d died during %s", info.Node, info)
			}
		}
		e.Metrics.Charge(simcost.Snapshot{RecordsReduced: int64(len(g.values))})
		if err := job.Reducer.Reduce(g.key, g.values, em); err != nil {
			return nil, fmt.Errorf("mr: reducer for key %q: %w", g.key, err)
		}
	}
	return em.kvs, nil
}
