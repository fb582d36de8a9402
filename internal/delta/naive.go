package delta

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/mr"
	"repro/internal/pool"
	"repro/internal/simcost"
	"repro/internal/stats"
)

// NaiveMaintainer is the §4.1 baseline: no delta maintenance. On every
// Grow it re-reads the accumulated sample (charged as the disk I/O the
// paper says makes this a bottleneck: "s and bi must be stored on the
// HDFS file system … the disk I/O cost can be a major performance
// bottleneck") and redraws all B resamples from scratch, recomputing
// every state. Fig. 10's "without optimization" series runs on this.
//
// The B redraws are independent, so — like the optimized Maintainer —
// Grow shards them across Config.Parallelism workers with a
// deterministic per-(generation, resample) rng stream; results are
// identical at any parallelism.
type NaiveMaintainer struct {
	red     mr.IncrementalReducer
	b       int
	par     int
	seed    uint64
	metrics *simcost.Metrics
	key     string

	sample     []float64
	values     []float64
	generation int
	updates    atomic.Int64
}

// naiveSeed2 is the second PCG seed word for the baseline's streams.
const naiveSeed2 = 0x5be0cd19137e2179

// NewNaive creates the baseline with the same Config surface as New.
func NewNaive(cfg Config) (*NaiveMaintainer, error) {
	if cfg.Reducer == nil {
		return nil, errors.New("delta: Config.Reducer is required")
	}
	if cfg.B < 2 {
		return nil, fmt.Errorf("delta: need B ≥ 2, got %d", cfg.B)
	}
	return &NaiveMaintainer{
		red:     cfg.Reducer,
		b:       cfg.B,
		par:     pool.Workers(cfg.Parallelism),
		seed:    cfg.Seed,
		metrics: cfg.Metrics,
		key:     cfg.Key,
	}, nil
}

// N returns the current sample size.
func (m *NaiveMaintainer) N() int { return len(m.sample) }

// Updates reports total state operations performed (B×n per iteration).
func (m *NaiveMaintainer) Updates() int64 { return m.updates.Load() }

// Grow appends the delta and recomputes everything.
func (m *NaiveMaintainer) Grow(deltaSample []float64) error {
	if len(deltaSample) == 0 {
		return errors.New("delta: empty delta sample")
	}
	m.sample = append(m.sample, deltaSample...)
	n := len(m.sample)
	// Re-read s from HDFS (the old part was spilled) and write the
	// refreshed resamples back — the round trip §4.1 eliminates.
	m.metrics.Charge(simcost.Snapshot{DiskSeeks: int64(m.b) + 1,
		BytesRead: int64(n) * bytesPerItem, BytesWritten: int64(m.b) * int64(n) * bytesPerItem})
	m.values = make([]float64, m.b)
	gen := m.generation
	m.generation++

	return pool.ForEachWorker(m.b, m.par, func() func(int) error {
		buf := make([]float64, n)
		return func(i int) error {
			rng := stats.SplitRNG(m.seed, naiveSeed2, gen*m.b+i)
			for j := range buf {
				buf[j] = m.sample[rng.IntN(n)]
			}
			st, err := m.red.Initialize(m.key)
			if err == nil {
				st, err = m.red.Update(st, buf)
			}
			if err != nil {
				return fmt.Errorf("delta: resample %d: %w", i, err)
			}
			m.charge(int64(n))
			v, err := m.red.Finalize(st)
			if err != nil {
				return fmt.Errorf("delta: resample %d: %w", i, err)
			}
			m.values[i] = v
			return nil
		}
	})
}

func (m *NaiveMaintainer) charge(n int64) {
	m.updates.Add(n)
	m.metrics.Charge(simcost.Snapshot{RecordsReduced: n})
}

// Results returns the current result distribution.
func (m *NaiveMaintainer) Results() ([]float64, error) {
	if len(m.values) == 0 {
		return nil, errors.New("delta: no sample yet")
	}
	return append([]float64(nil), m.values...), nil
}

// bytesPerItem mirrors the sketch package's record size for charging.
const bytesPerItem = 8
