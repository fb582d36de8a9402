// Package mr is what EARL keeps of the MapReduce framework it extends
// (Hadoop 0.20): the pieces a sampled run (internal/core) is built on.
// It provides:
//
//   - a cluster of nodes that live and die, on which a job's tasks are
//     placed round-robin — the machinery whose overheads (job
//     submission, task JVM spawn) EARL amortises and whose failures it
//     tolerates (§3.4);
//   - HashPartition, the reduce-side routing of keys;
//   - Feedback, the §3.3 stop/expand policy the reducers' error tells
//     the mappers, with the cost of the paper's error files;
//   - the finer-grained incremental reduce API of §2.1 —
//     initialize/update/finalize/correct, plus §4.1's remove and a
//     state merge, every batch a []float64 — used by EARL to keep per-
//     resample states instead of raw data. A state starts empty
//     (Initialize takes only the key), and values reach it only
//     through Update and its lane and counted twins.
//
// The round loop itself — mappers that stay alive across rounds,
// reducers that fold before the mappers finish — is core's engine.
// Every task and exchange is charged to a simcost.Metrics so
// experiments can model paper-scale wall-clock time.
package mr

import "hash/fnv"

// HashPartition maps a key to one of r reduce partitions: FNV-1a hash
// modulo r. Random hashing over keys is what makes "choosing a subset
// of the keys at random" a uniform sample (§1 of the paper).
func HashPartition(key string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(r))
}
