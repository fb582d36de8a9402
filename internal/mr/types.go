// Package mr is an in-process MapReduce engine modeled on Hadoop 0.20 —
// the execution substrate the paper extends. It provides:
//
//   - a cluster abstraction with round-robin task placement on live
//     nodes and deterministic fault injection — the machinery whose
//     overheads (job submission, task JVM spawn) EARL amortises and
//     whose failures EARL tolerates (§3.4);
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
	"fmt"
	"hash/fnv"
)

// KV is one key/value pair flowing between stages.
type KV struct {
	Key   string
	Value any
}

// HashPartition maps a key to one of r reduce partitions: FNV-1a hash
// modulo r. Random hashing over keys is what makes "choosing a subset
// of the keys at random" a uniform sample (§1 of the paper).
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
