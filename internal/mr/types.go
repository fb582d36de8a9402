// Package mr is an in-process MapReduce engine modeled on Hadoop 0.20 —
// the execution substrate the paper extends. It provides:
//
//   - the classic two-stage programming model (Mapper, Reducer, optional
//     Combiner, hash partitioning) over line-oriented input splits from the
//     simulated DFS (package dfs);
//   - a cluster abstraction with round-robin task placement on live
//     nodes, task restart on failure, and deterministic fault
//     injection — the machinery whose overheads (job submission, task
//     JVM spawn) EARL amortises and whose failures EARL tolerates (§3.4);
//   - a pipelined execution mode in which reducers consume map output
//     while mappers run, plus a mapper⇄reducer control bus. These are the
//     paper's three Hadoop modifications (§2.1): reducers process input
//     before mappers finish, mappers stay alive until explicitly
//     terminated, and a communication layer lets the job check its
//     termination condition;
//   - the finer-grained incremental reduce API of §2.1 —
//     initialize/update/finalize/correct — used by EARL to keep per-
//     resample states instead of raw data.
//
// Every data movement is charged to a simcost.Metrics so experiments can
// model paper-scale wall-clock time.
package mr

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// KV is one key/value pair flowing between stages.
type KV struct {
	Key   string
	Value any
}

// Emitter receives pairs produced by map and reduce functions.
type Emitter interface {
	Emit(key string, value any)
}

// Mapper transforms one input record into intermediate pairs. For text
// input (the Hadoop default this engine implements), key is the byte
// offset of the line and value is the line without its newline.
type Mapper interface {
	Map(offset int64, line string, emit Emitter) error
}

// Reducer folds all values sharing a key into output pairs.
type Reducer interface {
	Reduce(key string, values []any, emit Emitter) error
}

// Combiner optionally pre-aggregates map output per task before shuffle,
// cutting shuffle bytes — same contract as Reducer.
type Combiner interface {
	Combine(key string, values []any, emit Emitter) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(offset int64, line string, emit Emitter) error

// Map implements Mapper.
func (f MapperFunc) Map(offset int64, line string, emit Emitter) error {
	return f(offset, line, emit)
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key string, values []any, emit Emitter) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []any, emit Emitter) error {
	return f(key, values, emit)
}

// HashPartition maps a key to one of r reduce partitions, for batch and
// pipelined jobs alike: FNV-1a hash modulo r. Random hashing over keys
// is what makes "choosing a subset of the keys at random" a uniform
// sample (§1 of the paper).
func HashPartition(key string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r))
}

// ValueSize estimates the serialized size of a value for shuffle-byte
// accounting. Strings and []byte count their length; everything else is
// charged a fixed 8 bytes (one word), which matches the numeric payloads
// EARL's jobs emit.
func ValueSize(v any) int64 {
	switch x := v.(type) {
	case string:
		return int64(len(x))
	case []byte:
		return int64(len(x))
	case []float64:
		return int64(8 * len(x))
	default:
		return 8
	}
}

// Job describes one MapReduce job.
type Job struct {
	Name string

	// InputPath is the file of the engine's DFS the job reads as text
	// lines, split by SplitSize.
	InputPath string
	SplitSize int64 // bytes per input split; DFS block size if 0

	Mapper      Mapper
	Combiner    Combiner
	Reducer     Reducer
	NumReducers int // 1 if 0
}

// maxAttempts bounds per-task retries after failures (Hadoop's
// mapred.map.max.attempts default).
const maxAttempts = 4

func (j *Job) validate() error {
	if j.Mapper == nil {
		return errors.New("mr: job needs a Mapper")
	}
	if j.Reducer == nil {
		return errors.New("mr: job needs a Reducer")
	}
	if j.InputPath == "" {
		return errors.New("mr: job needs an InputPath")
	}
	return nil
}

func (j *Job) numReducers() int {
	if j.NumReducers <= 0 {
		return 1
	}
	return j.NumReducers
}

// Result is a completed job's output.
type Result struct {
	Output []KV // reduce output, ordered by (partition, key)
}

// TaskKind distinguishes map from reduce tasks in failure injection.
type TaskKind int

// Task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// TaskInfo identifies one task attempt for fault injection.
type TaskInfo struct {
	Job     string
	Kind    TaskKind
	Index   int // split index for maps, partition for reduces
	Attempt int // 0-based
	Node    int
}

func (t TaskInfo) String() string {
	return fmt.Sprintf("%s/%s[%d]#%d@node%d", t.Job, t.Kind, t.Index, t.Attempt, t.Node)
}

// FaultInjector decides whether a given task attempt fails. Injectors
// must be deterministic functions of TaskInfo for reproducible tests.
type FaultInjector interface {
	ShouldFail(t TaskInfo) bool
}

// FaultFunc adapts a function to FaultInjector.
type FaultFunc func(t TaskInfo) bool

// ShouldFail implements FaultInjector.
func (f FaultFunc) ShouldFail(t TaskInfo) bool { return f(t) }

// ErrTooManyFailures is returned when a task exhausts its attempts.
var ErrTooManyFailures = errors.New("mr: task failed on every attempt")

// ErrJobAborted is returned when the engine is asked to abort a job.
var ErrJobAborted = errors.New("mr: job aborted")
