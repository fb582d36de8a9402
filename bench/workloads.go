package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/workload"
)

// appendBatch is the records per ingest cycle: 4096 fixed-width values
// are 77 KB, just over dfs's 64 KB threshold for extending the sidecar
// in place, so every append exercises colseg.Extend.
const appendBatch = 4096

// workloadDef is one traffic mix. spec is the main op with Seed left
// zero: every op carries its own seed so one-shots miss earld's result
// cache by construction.
type workloadDef struct {
	name string
	why  string
	env  core.EnvConfig
	path string
	dist workload.Dist
	spec plan.Spec
	// kv stores "g<i%16>\t<value>" records; keep and derive are the
	// oracle's plain-Go twins of spec.Filter and spec.Derive.
	kv     bool
	keep   func(key string, v float64) bool
	derive func(v float64) float64
	// library drives earl.Cluster.RunMulti from one caller instead of
	// earld over HTTP.
	library bool
	// ingest runs the fixed-count append→refresh cycle beside the
	// readers; cyclesPerSecond turns the requested seconds into the
	// cycle count (a fixed count, because append cost grows with the
	// file: a fixed-time loop would measure a moving target).
	ingest          bool
	cyclesPerSecond float64
	watchStats      []string
}

var workloads = []workloadDef{
	{
		name: "query_sampled",
		why:  "1 M Gaussian records fit the scan cache; mean reads ~10 k pilot records, so the op is pilot + SSABE + engine coordination (the paper's headline case)",
		path: "/bench/gauss",
		dist: workload.Gaussian,
		spec: plan.Spec{Path: "/bench/gauss", Stats: []string{"mean"}},
	},
	{
		name: "query_scan",
		why:  "1 MiB blocks and a 4 MiB scan cache under a 36 MB working set: every filtered, derived, grouped post-map query re-reads all blocks cold through sidecars and the plan VM",
		env:  core.EnvConfig{BlockSize: 1 << 20, CacheBytes: 4 << 20},
		path: "/bench/kv",
		dist: workload.Uniform,
		kv:   true,
		spec: plan.Spec{Path: "/bench/kv", Stats: []string{"mean"}, Filter: `v > 20 && key != "g7"`,
			Derive: "v * 2 + 1", GroupBy: "key", Sampler: "post-map"},
		keep:   func(key string, v float64) bool { return v > 20 && key != "g7" },
		derive: func(v float64) float64 { return v*2 + 1 },
	},
	{
		name:    "resample_cpu",
		why:     "library RunMulti of mean, p50 and count over 1 M Zipf records: skew forces samples of 10^4 to 10^5 records, so time sits in SSABE, bootstrap and delta maintenance, with no HTTP",
		path:    "/bench/zipf",
		dist:    workload.Zipf,
		spec:    plan.Spec{Path: "/bench/zipf", Stats: []string{"mean", "p50", "count"}},
		library: true,
	},
	{
		name:            "ingest_refresh",
		why:             "a fixed count of 77 KB appends, each followed by a shared watch refresh, beside cache-missing mean one-shots on the same file: writes contending with reads",
		path:            "/bench/stream",
		dist:            workload.Gaussian,
		spec:            plan.Spec{Path: "/bench/stream", Stats: []string{"mean"}},
		ingest:          true,
		cyclesPerSecond: 45,
		watchStats:      []string{"mean", "p95"},
	},
}

// clients is the closed-loop callers the workload runs with: one for
// the library workload (a caller looping; the library has no admission
// layer to share), procs otherwise.
func (w *workloadDef) clients(procs int) int {
	if w.library {
		return 1
	}
	return procs
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// dataset is one workload's generated input and its exact answers.
type dataset struct {
	vals    []float64 // record values in file order
	encoded []byte    // the file as stored; dropped after ingest
	truth   truth
	// batches are the ingest cycles' appended values; meanAfter[k] is
	// the exact mean of the file once k batches are acknowledged.
	batches   [][]float64
	meanAfter []float64
}

// truth is the oracle's exact answer to a workload's main op: one
// value per statistic, or one per group when the spec groups.
type truth struct {
	stats  []float64
	groups map[string]float64
}

// kvKeys is the number of distinct group keys of kv data. With 16
// keys and one filtered out, a grouped mean settles in two rounds on
// nearly every seed; with 8 it flips between one and two, and a
// bimodal op has no median worth gating.
const kvKeys = 16

func kvKey(i int) string { return "g" + strconv.Itoa(i%kvKeys) }

// generate builds the workload's input from seed: n records, plus
// cycles append batches (the ingest workload's cycles, and the appends
// the traced pass's probes make on every workload).
func (w *workloadDef) generate(seed uint64, n, cycles int) (*dataset, error) {
	vals, err := workload.NumericSpec{Dist: w.dist, N: n, Seed: seed}.Generate()
	if err != nil {
		return nil, err
	}
	ds := &dataset{vals: vals, encoded: w.encode(vals)}
	ds.truth = w.oracle(vals)
	if cycles > 0 {
		all, err := workload.NumericSpec{Dist: w.dist, N: cycles * appendBatch, Seed: seed ^ 0x696e67657374}.Generate()
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		count := float64(len(vals))
		ds.meanAfter = append(ds.meanAfter, sum/count)
		for k := 0; k < cycles; k++ {
			b := all[k*appendBatch : (k+1)*appendBatch]
			ds.batches = append(ds.batches, b)
			for _, v := range b {
				sum += v
			}
			count += appendBatch
			ds.meanAfter = append(ds.meanAfter, sum/count)
		}
	}
	return ds, nil
}

// encode renders vals as the workload stores them: "g<i%16>\t<value>"
// lines for kv data, fixed-width numeric lines otherwise.
func (w *workloadDef) encode(vals []float64) []byte {
	if !w.kv {
		return workload.EncodeLinesFixed(vals)
	}
	var buf bytes.Buffer
	buf.Grow(len(vals) * 24)
	for i, v := range vals {
		buf.WriteString(kvKey(i))
		buf.WriteByte('\t')
		buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// oracle computes the exact answer to w.spec over vals in plain Go —
// never through the system under test.
func (w *workloadDef) oracle(vals []float64) truth {
	if w.spec.GroupBy != "" {
		sum, cnt := map[string]float64{}, map[string]float64{}
		for i, v := range vals {
			key := kvKey(i)
			if !w.keep(key, v) {
				continue
			}
			sum[key] += w.derive(v)
			cnt[key]++
		}
		groups := make(map[string]float64, len(sum))
		for k, s := range sum {
			groups[k] = s / cnt[k]
		}
		return truth{groups: groups}
	}
	return truth{stats: exactStats(w.spec.Stats, vals)}
}

// exactStats answers the named statistics over vals by sum and sort.
func exactStats(names []string, vals []float64) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted { // ascending order keeps the sum's rounding small
		sum += v
	}
	out := make([]float64, len(names))
	for i, name := range names {
		switch name {
		case "mean":
			out[i] = sum / float64(len(sorted))
		case "count":
			out[i] = float64(len(sorted))
		case "p50":
			out[i] = quantileType7(sorted, 0.50)
		case "p95":
			out[i] = quantileType7(sorted, 0.95)
		default:
			panic("bench: oracle has no statistic " + name)
		}
	}
	return out
}
