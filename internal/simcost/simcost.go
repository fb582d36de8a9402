// Package simcost models the wall-clock cost of a MapReduce job from
// hardware-independent counters.
//
// The paper's evaluation ran on a 5-node Hadoop 0.20.2 cluster over
// datasets up to hundreds of gigabytes. This reproduction executes the
// same algorithms in-process over much smaller data; what carries over is
// the *cost structure* — bytes scanned from disk, bytes shuffled over the
// network, records processed, disk seeks, and per-task / per-job fixed
// overheads. Every component of the simulated stack (DFS, MapReduce
// engine, samplers) charges a Metrics ledger, and a CostModel converts
// those counters into a modeled duration using constants calibrated to
// commodity 2012 hardware (the paper's Intel Core Duo E8400 nodes).
//
// Ledgers form a tree with one rule: a child's charge is its parent's
// charge too, made at the same moment. A cluster owns the root; each run
// charges its own child of it, so a run's cost is its ledger — exact
// however many runs overlap — and the root is always the sum of
// everything charged below it.
//
// Figures 5–7, 9 and 10 of the paper compare processing times; the bench
// harness reports both measured in-process time and the modeled time from
// this package, and the shape claims (crossover points, speedup factors)
// are asserted on the modeled numbers, which are deterministic.
package simcost

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Metrics accumulates the cost-relevant counters of one job (or any
// sub-phase). All methods are safe for concurrent use: map and reduce
// tasks running on different goroutines update the same Metrics.
//
// A Metrics is a ledger: Charge is the one way its counters grow (a
// no-op on a nil ledger), and a Child's charges land in its parent too.
type Metrics struct {
	BytesRead      atomic.Int64 // bytes scanned from DFS block storage
	BytesWritten   atomic.Int64 // bytes written back to DFS
	BytesShuffled  atomic.Int64 // map→reduce network traffic
	RecordsRead    atomic.Int64 // input records delivered to mappers
	RecordsMapped  atomic.Int64 // records emitted by mappers
	RecordsReduced atomic.Int64 // records consumed by reducers
	DiskSeeks      atomic.Int64 // random repositionings within blocks
	MapTasks       atomic.Int64 // map task launches (incl. restarts)
	ReduceTasks    atomic.Int64 // reduce task launches (incl. restarts)
	JobStartups    atomic.Int64 // MR job submissions (JVM fleet spin-up)
	TaskRestarts   atomic.Int64 // tasks restarted after failure
	Refreshes      atomic.Int64 // maintained-query refresh operations (continuous ingest)

	parent *Metrics // where every charge also lands; nil for a root
}

// Child returns a fresh ledger whose charges also add into m.
func (m *Metrics) Child() *Metrics { return &Metrics{parent: m} }

// Charge adds d to m and to every ledger above it. It is safe on a nil
// m, which charges nothing.
func (m *Metrics) Charge(d Snapshot) {
	for ; m != nil; m = m.parent {
		m.add(&d)
	}
}

// add folds d into m's own counters, skipping the zero ones: a charge
// usually moves one or two, and each move is an atomic add. (Written
// out field by field: this runs per record on the read paths.)
func (m *Metrics) add(d *Snapshot) {
	if d.BytesRead != 0 {
		m.BytesRead.Add(d.BytesRead)
	}
	if d.BytesWritten != 0 {
		m.BytesWritten.Add(d.BytesWritten)
	}
	if d.BytesShuffled != 0 {
		m.BytesShuffled.Add(d.BytesShuffled)
	}
	if d.RecordsRead != 0 {
		m.RecordsRead.Add(d.RecordsRead)
	}
	if d.RecordsMapped != 0 {
		m.RecordsMapped.Add(d.RecordsMapped)
	}
	if d.RecordsReduced != 0 {
		m.RecordsReduced.Add(d.RecordsReduced)
	}
	if d.DiskSeeks != 0 {
		m.DiskSeeks.Add(d.DiskSeeks)
	}
	if d.MapTasks != 0 {
		m.MapTasks.Add(d.MapTasks)
	}
	if d.ReduceTasks != 0 {
		m.ReduceTasks.Add(d.ReduceTasks)
	}
	if d.JobStartups != 0 {
		m.JobStartups.Add(d.JobStartups)
	}
	if d.TaskRestarts != 0 {
		m.TaskRestarts.Add(d.TaskRestarts)
	}
	if d.Refreshes != 0 {
		m.Refreshes.Add(d.Refreshes)
	}
}

// counters returns m's own counters in Snapshot's field order.
func (m *Metrics) counters() [12]*atomic.Int64 {
	return [...]*atomic.Int64{&m.BytesRead, &m.BytesWritten, &m.BytesShuffled, &m.RecordsRead, &m.RecordsMapped,
		&m.RecordsReduced, &m.DiskSeeks, &m.MapTasks, &m.ReduceTasks, &m.JobStartups, &m.TaskRestarts, &m.Refreshes}
}

// Snapshot is an immutable copy of a Metrics at a point in time.
type Snapshot struct {
	BytesRead      int64
	BytesWritten   int64
	BytesShuffled  int64
	RecordsRead    int64
	RecordsMapped  int64
	RecordsReduced int64
	DiskSeeks      int64
	MapTasks       int64
	ReduceTasks    int64
	JobStartups    int64
	TaskRestarts   int64
	Refreshes      int64
}

// fields returns pointers to s's counters in declaration order.
func (s *Snapshot) fields() [12]*int64 {
	return [...]*int64{&s.BytesRead, &s.BytesWritten, &s.BytesShuffled, &s.RecordsRead, &s.RecordsMapped,
		&s.RecordsReduced, &s.DiskSeeks, &s.MapTasks, &s.ReduceTasks, &s.JobStartups, &s.TaskRestarts, &s.Refreshes}
}

// Snapshot returns a consistent-enough copy for reporting. (Individual
// counters are read atomically; cross-counter skew is irrelevant for cost
// accounting after a job completes.)
func (m *Metrics) Snapshot() (s Snapshot) {
	fs := s.fields()
	for i, c := range m.counters() {
		*fs[i] = c.Load()
	}
	return s
}

// Reset zeroes m's own counters (not its parent's).
func (m *Metrics) Reset() {
	for _, c := range m.counters() {
		c.Store(0)
	}
}

// Add folds another snapshot into s.
func (s Snapshot) Add(o Snapshot) Snapshot {
	fs, ofs := s.fields(), o.fields()
	for i := range fs {
		*fs[i] += *ofs[i]
	}
	return s
}

// Sub returns s - o, the delta between two snapshots of the same Metrics.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	fs, ofs := s.fields(), o.fields()
	for i := range fs {
		*fs[i] -= *ofs[i]
	}
	return s
}

// CostModel converts a Snapshot into modeled wall-clock time. Throughput
// constants are per cluster node; ClusterNodes divides the parallelisable
// terms, while fixed per-job terms are serial (Hadoop's job submission and
// scheduling critical path).
type CostModel struct {
	ClusterNodes     int           // parallel width; paper used 5
	DiskMBps         float64       // sequential scan rate per node
	NetMBps          float64       // shuffle bandwidth per node
	SeekLatency      time.Duration // one random disk seek
	RecordCPU        time.Duration // per-record map/reduce CPU cost
	TaskStartup      time.Duration // per task-launch overhead (JVM spawn)
	JobStartup       time.Duration // per job-submission overhead
	PipelineDiscount float64       // 0..1 fraction of shuffle overlapped with map when pipelining
}

// Hadoop2012 returns constants approximating the paper's testbed: 5 nodes,
// ~90 MB/s sequential disk, ~110 MB/s (GigE) network, 10 ms seeks, ~1.5 µs
// of CPU per text record, 1.5 s JVM task spawn, 6 s job submission. These
// are the knobs that give stock Hadoop its famous minimum-job-latency
// floor, which is exactly the overhead EARL amortises.
func Hadoop2012() CostModel {
	return CostModel{
		ClusterNodes:     5,
		DiskMBps:         90,
		NetMBps:          110,
		SeekLatency:      10 * time.Millisecond,
		RecordCPU:        1500 * time.Nanosecond,
		TaskStartup:      1500 * time.Millisecond,
		JobStartup:       6 * time.Second,
		PipelineDiscount: 0.8,
	}
}

// Validate reports whether the model's constants are usable.
func (c CostModel) Validate() error {
	if c.ClusterNodes <= 0 {
		return fmt.Errorf("simcost: ClusterNodes must be positive, got %d", c.ClusterNodes)
	}
	if c.DiskMBps <= 0 || c.NetMBps <= 0 {
		return fmt.Errorf("simcost: throughputs must be positive")
	}
	if c.PipelineDiscount < 0 || c.PipelineDiscount > 1 {
		return fmt.Errorf("simcost: PipelineDiscount must be in [0,1]")
	}
	return nil
}

// Duration returns the modeled wall-clock time for the counters in s,
// assuming batch (non-pipelined) execution.
func (c CostModel) Duration(s Snapshot) time.Duration {
	return c.duration(s, false)
}

// PipelinedDuration returns the modeled time when map output is streamed
// to reducers while mapping proceeds (the HOP-style pipelining EARL
// adopts): a PipelineDiscount fraction of shuffle time is hidden.
func (c CostModel) PipelinedDuration(s Snapshot) time.Duration {
	return c.duration(s, true)
}

func (c CostModel) duration(s Snapshot, pipelined bool) time.Duration {
	nodes := float64(c.ClusterNodes)
	const mb = 1 << 20
	scan := time.Duration(float64(s.BytesRead+s.BytesWritten) / mb / c.DiskMBps / nodes * float64(time.Second))
	shuffle := time.Duration(float64(s.BytesShuffled) / mb / c.NetMBps / nodes * float64(time.Second))
	if pipelined {
		shuffle = time.Duration(float64(shuffle) * (1 - c.PipelineDiscount))
	}
	seeks := time.Duration(s.DiskSeeks) * c.SeekLatency / time.Duration(c.ClusterNodes)
	cpuRecords := s.RecordsRead + s.RecordsMapped + s.RecordsReduced
	cpu := time.Duration(cpuRecords) * c.RecordCPU / time.Duration(c.ClusterNodes)
	// Task launches parallelise across nodes; job submissions do not.
	tasks := time.Duration(float64(s.MapTasks+s.ReduceTasks) * float64(c.TaskStartup) / nodes)
	jobs := time.Duration(s.JobStartups) * c.JobStartup
	return scan + shuffle + seeks + cpu + tasks + jobs
}

// ScaleBytes returns a copy of s with all byte/record/seek counters
// multiplied by factor, leaving task/job launch counts unchanged. This is
// how the bench harness extrapolates a measured small-scale run to the
// paper's data sizes: data-dependent work scales linearly with input size,
// fixed scheduling overheads do not.
func (s Snapshot) ScaleBytes(factor float64) Snapshot {
	fs := s.fields()
	for _, p := range fs[:7] { // BytesRead … DiskSeeks: the data-dependent counters
		*p = int64(float64(*p) * factor)
	}
	return s
}

// ScaleAll returns a copy of s with every counter except JobStartups
// and ReduceTasks multiplied by factor. This is the stock-job
// extrapolation: doubling the input doubles bytes, records, seeks AND
// map task launches (more splits), while the reducer count is a job
// setting and job submission stays one.
func (s Snapshot) ScaleAll(factor float64) Snapshot {
	out := s.ScaleBytes(factor)
	out.MapTasks = int64(float64(s.MapTasks) * factor)
	out.TaskRestarts = int64(float64(s.TaskRestarts) * factor)
	return out
}

// String renders the snapshot compactly for logs and experiment output.
func (s Snapshot) String() string {
	return fmt.Sprintf("read=%dB written=%dB shuffled=%dB recs(in/map/red)=%d/%d/%d seeks=%d tasks(m/r)=%d/%d jobs=%d restarts=%d refreshes=%d",
		s.BytesRead, s.BytesWritten, s.BytesShuffled,
		s.RecordsRead, s.RecordsMapped, s.RecordsReduced,
		s.DiskSeeks, s.MapTasks, s.ReduceTasks, s.JobStartups, s.TaskRestarts, s.Refreshes)
}
