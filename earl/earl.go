// Package earl is the public API of this EARL reproduction — the Early
// Accurate Result Library of Laptev, Zeng & Zaniolo, "Early Accurate
// Results for Advanced Analytics on MapReduce" (PVLDB 5(10), 2012) —
// rebuilt in Go on a simulated Hadoop substrate.
//
// EARL answers analytics queries on massive data sets early: it samples,
// runs the user's job on B bootstrap resamples, estimates the error of
// the approximate answer, and expands the sample until a user-specified
// error bound σ is met — usually touching a tiny fraction of the data.
//
// Quickstart:
//
//	cluster, _ := earl.NewCluster(earl.ClusterConfig{})
//	_ = cluster.WriteFile("/data", workloadBytes) // one number per line
//	rep, _ := cluster.Run(earl.Mean(), "/data", earl.Options{Sigma: 0.05})
//	fmt.Printf("mean ≈ %.3f ± %.1f%% (from %d of ~%d records)\n",
//		rep.Estimate, 100*rep.CV, rep.SampleSize, rep.EstTotalN)
//
// Resampling — EARL's CPU hot path — runs on a parallel bootstrap
// engine: Options.Parallelism sets the worker-pool size that SSABE's
// phase-2 error-curve resampling and the reducer's per-delta-batch
// resample updates are sharded across (0 means runtime.GOMAXPROCS, 1
// forces the sequential path; SSABE's phase 1 stays sequential — it
// adds one resample at a time and early-stops on stability — and is
// run once for all of a query's statistics). The
// engine's reproducible-seeding contract: every shard of work owns an
// rng stream derived only from the run's Seed and the shard index —
// never from worker identity or scheduling — so a run with a fixed Seed
// produces bit-identical results at any Parallelism.
//
// The heavy lifting lives in internal packages: internal/dfs (simulated
// HDFS), internal/mr (the MapReduce engine with EARL's pipelining and
// incremental-reduce extensions), internal/sampling (pre-map/post-map
// samplers), internal/bootstrap + internal/delta (resampling and its
// optimizations), internal/aes (accuracy estimation and SSABE), and
// internal/core (the driver). This package re-exports the surface a
// downstream user needs.
package earl

import (
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/live"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// Options re-exports core.Options: the knobs of one EARL run — Sigma
// (σ), Sampler, Seed, ForceB and ForceN, DisableDeltaMaintenance and
// Parallelism.
type Options = core.Options

// Report re-exports core.Report: the early result with its achieved
// error, confidence interval and provenance.
type Report = core.Report

// Job re-exports jobs.Numeric: a scalar statistic expressed through the
// incremental reduce API.
type Job = jobs.Numeric

// SamplerKind selects the sampling stage implementation (§3.3).
type SamplerKind = core.SamplerKind

// Sampler kinds (§3.3 of the paper).
const (
	PreMapSampling  = core.PreMapSampling
	PostMapSampling = core.PostMapSampling
)

// Built-in jobs.
var (
	// Mean is the arithmetic-mean job (Fig. 5's workload).
	Mean = jobs.Mean
	// Median is the median job (Fig. 6's workload).
	Median = jobs.Median
	// Sum is the total, corrected by 1/p when sampled.
	Sum = jobs.Sum
	// Count is the record count, corrected by 1/p.
	Count = jobs.Count
	// Variance is the unbiased sample variance.
	Variance = jobs.Variance
	// StdDev is the sample standard deviation.
	StdDev = jobs.StdDev
	// Proportion estimates the share of 1-records in 0/1 data
	// (Appendix A's categorical path).
	Proportion = jobs.Proportion
)

// Quantile builds the q-th quantile job (0 < q < 1).
func Quantile(q float64) (Job, error) { return jobs.Quantile(q) }

// JobByName resolves a statistic by its user-facing name (mean, sum,
// count, median, variance, stddev, proportion, pNN percentiles, q0.NN
// quantiles) — the shared table every front end uses.
func JobByName(name string) (Job, error) { return jobs.ByName(name) }

// ClusterConfig shapes the simulated deployment.
type ClusterConfig = core.EnvConfig

// Cluster is a simulated Hadoop deployment: a replicated DFS plus a
// MapReduce engine with EARL's extensions. All EARL runs execute
// against a Cluster.
//
// Concurrency contract: a Cluster is safe for concurrent use. Any mix
// of Run, RunMulti, RunGrouped, RunPlan, Watch, WatchMulti,
// WatchGrouped, WatchPlan, Append, WriteFile and metrics calls may
// proceed from multiple goroutines against the same
// Cluster — the DFS and engine are internally synchronized, and every
// run owns its reducer→mapper feedback state (an in-memory round
// barrier), so concurrent runs (even of the same job over the same
// path) never observe each other's expansion state. Each Watch handle
// additionally serialises its own Refresh calls, so a handle may be
// shared between goroutines; an Append concurrent with a Refresh is
// ordered by the DFS — the refresh either sees the appended blocks now
// or picks them up on its next call.
//
// Rewrites are isolated, not forbidden: a WriteFile over a path with
// an open Watch is one journaled DFS commit, every Refresh reads
// through a snapshot pinned at a single commit point, and a refresh
// that observes the new write generation rebuilds the maintained state
// from scratch — so each report reflects exactly one version of the
// file (pre- or post-rewrite), never a blend. The cost counters in Metrics are
// cluster-wide aggregates: under concurrent runs, per-run attribution
// requires snapshot deltas taken by the caller (see internal/serve for
// the caveats). KillNode/ReviveNode are also safe to call mid-run —
// that is exactly the §3.4 fault-tolerance path.
type Cluster struct {
	env *core.Env
}

// NewCluster builds a cluster (default: the paper's 5 nodes).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	env, err := core.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{env: env}, nil
}

// WriteFile stores data in the cluster's DFS.
func (c *Cluster) WriteFile(path string, data []byte) error {
	return c.env.FS.WriteFile(path, data)
}

// WriteValues encodes numeric values one-per-line in a fixed-width
// format and stores them. Fixed-width records make pre-map sampling
// exactly uniform (variable-width lines are sampled in proportion to
// their length — the mild bias §3.3 of the paper accepts). Use WriteFile
// to store pre-encoded data in any layout.
func (c *Cluster) WriteValues(path string, values []float64) error {
	return c.env.FS.WriteFile(path, workload.EncodeLinesFixed(values))
}

// Append adds record-aligned data (it must end with a newline) to the
// end of path as fresh, replicated blocks. Existing blocks and splits
// are untouched, so maintained queries (Watch) can process only the
// appended region on their next Refresh.
func (c *Cluster) Append(path string, data []byte) error {
	return c.env.FS.Append(path, data)
}

// AppendValues appends numeric values in the same fixed-width encoding
// as WriteValues.
func (c *Cluster) AppendValues(path string, values []float64) error {
	return c.env.FS.Append(path, workload.EncodeLinesFixed(values))
}

// CompactStats re-exports dfs.CompactStats: what a Compact found and did.
type CompactStats = dfs.CompactStats

// Compact rebuilds path's persistent columnar sidecar to full coverage:
// it backfills files ingested without one and re-encodes the uncovered
// tail left behind by small appends, so subsequent cold reads skip the
// text decode. The data file itself is untouched. A file whose records
// the columnar validators reject returns the decode error and keeps no
// sidecar.
func (c *Cluster) Compact(path string) (CompactStats, error) {
	return c.env.FS.Compact(path)
}

// JournalStats re-exports dfs.JournalStats: the commit-journal health
// snapshot (committed records, journal bytes, active snapshot pins,
// and crash-recovery replay stats when the cluster was recovered).
type JournalStats = dfs.JournalStats

// JournalStats snapshots the DFS commit journal's counters.
func (c *Cluster) JournalStats() JournalStats { return c.env.FS.JournalStats() }

// JournalBytes returns a copy of the cluster's commit-journal image —
// what a durable deployment would have on disk, including any torn
// final record an injected crash left behind. RecoverCluster replays
// it.
func (c *Cluster) JournalBytes() []byte { return c.env.FS.JournalBytes() }

// FaultPlan re-exports dfs.FaultPlan: the seeded, deterministic
// fault-injection layer (transient replica read errors, slow replicas,
// crash at a chosen commit point with an optionally torn final write).
type FaultPlan = dfs.FaultPlan

// SetFaultPlan installs a fault-injection plan on the cluster's DFS
// (nil clears it). Injected faults are deterministic in the plan's
// Seed, so a fixed-seed run answers bit-identically with transient
// faults on or off — the chaos acceptance suite pins exactly that.
func (c *Cluster) SetFaultPlan(plan *FaultPlan) { c.env.FS.SetFaultPlan(plan) }

// RecoverStats re-exports dfs.RecoverStats: what a journal replay
// found and rebuilt.
type RecoverStats = dfs.RecoverStats

// RecoverCluster rebuilds a cluster from a commit-journal image
// (JournalBytes of a previous — typically crashed — cluster). Replay
// funnels every durable commit through the live ingest path, so with
// the same cfg the recovered cluster answers queries bit-identically
// to the original at the replayed commit point. A torn final record is
// truncated cleanly; interior corruption is refused.
func RecoverCluster(cfg ClusterConfig, image []byte) (*Cluster, RecoverStats, error) {
	env, rst, err := core.RecoverEnv(cfg, image)
	if err != nil {
		return nil, rst, err
	}
	return &Cluster{env: env}, rst, nil
}

// Run executes job over path with early accurate results.
func (c *Cluster) Run(job Job, path string, opts Options) (Report, error) {
	return core.Run(c.env, job, path, opts)
}

// execute runs a library job query as a one-shot.
func (c *Cluster) execute(pq *core.PlannedQuery) (*PlanResult, error) {
	res, _, err := core.Execute(c.env, pq, false)
	return res, err
}

// RunMulti executes several statistics over path as ONE shared-pass run:
// one pilot, one SSABE giving a plan per statistic, one sample sized at the
// largest planned n, and one pass over the drawn records feeding every
// statistic's resample set. The input is read once regardless of how
// many statistics ride the pass — a dashboard asking for
// mean+p50+p95+count of the same column costs the IO of its most
// demanding statistic, not four separate scans. One Report per
// statistic, in job order.
func (c *Cluster) RunMulti(jset []Job, path string, opts Options) ([]Report, error) {
	res, err := c.execute(core.JobQuery(jset, path, opts))
	if err != nil {
		return nil, err
	}
	return res.Reports, nil
}

// RunExact executes job exactly over every record (the stock-Hadoop
// baseline); it returns the result and the records processed.
func (c *Cluster) RunExact(job Job, path string) (float64, int, error) {
	return core.RunExactJob(c.env, job, path, 0)
}

// KMeans configures the clustering job.
type KMeans = jobs.KMeans

// KMeansOptions tunes an early K-Means run.
type KMeansOptions = core.KMeansOptions

// KMeansReport is the early K-Means outcome.
type KMeansReport = core.KMeansReport

// RunKMeans clusters the comma-separated point file at path early, with
// a bootstrap error bound on the clustering cost (§6.3).
func (c *Cluster) RunKMeans(path string, k KMeans, opts KMeansOptions) (KMeansReport, error) {
	return core.RunKMeans(c.env, path, k, opts)
}

// KillNode fails one simulated machine (its DataNode and task slots) —
// EARL keeps answering through failures (§3.4).
func (c *Cluster) KillNode(id int) error { return c.env.KillNode(id) }

// ReviveNode brings a machine back.
func (c *Cluster) ReviveNode(id int) error { return c.env.ReviveNode(id) }

// Metrics exposes the cluster's cost counters.
func (c *Cluster) Metrics() simcost.Snapshot { return c.env.Metrics.Snapshot() }

// ResetMetrics zeroes the cost counters (between experiments).
func (c *Cluster) ResetMetrics() { c.env.Metrics.Reset() }

// Env exposes the underlying environment for advanced use (the
// benchmark harness reaches through this).
func (c *Cluster) Env() *core.Env { return c.env }

// ParseKV is a custom record parser for grouped runs: one line to a
// (group key, value) pair. A line it rejects, and a NaN/±Inf value it
// lets through, fail the run as a bad record.
type ParseKV = core.ParseKV

// Route tells a grouped run how to decode records. Exactly one field is
// set: use TabKV (which sets Format) for "key\tvalue" lines, and
// Route{Parse: fn} for any other layout; a Route with both fields or
// neither is rejected when the run starts.
type Route = core.Route

// TabKV routes "key\tvalue" lines, the format the columnar decoder
// reads natively (decoded blocks are cached and shared between runs).
var TabKV Route = core.TabRoute()

// GroupedReport holds per-key early estimates.
type GroupedReport = core.GroupedReport

// RunGrouped computes job per group key with an error bound on every
// group — EARL applied to the native keyed shape of MapReduce data (an
// extension beyond the paper's global aggregates; see core.Execute).
func (c *Cluster) RunGrouped(job Job, route Route, path string, opts Options) (GroupedReport, error) {
	res, err := c.execute(core.KeyedJobQuery(job, route, path, opts))
	if err != nil {
		return GroupedReport{}, err
	}
	return *res.Groups, nil
}

// Watch re-exports live.Watch: a maintained query handle over
// continuously ingested data — the opening run's sample, per-resample
// sketch states and SSABE plans stay alive, and Refresh processes only
// data appended since (EARL's delta maintenance, §4.1, applied across the
// lifetime of a dataset instead of within one run). One type serves
// every query shape: Result and Refresh return a PlanResult whose
// Reports hold one entry per statistic (scalar queries), or whose Groups
// holds the per-key report (grouped ones — Grouped says which).
type Watch = live.Watch

// Watch runs job over path once (exactly like Run) and keeps the result
// maintainable: after Append, call Refresh to bring the early answer up
// to date at o(N) cost. Close releases the handle.
//
//	w, _ := cluster.Watch(earl.Mean(), "/data", earl.Options{Sigma: 0.05})
//	_ = cluster.AppendValues("/data", newBatch)
//	res, _ := w.Refresh() // samples only the appended blocks
//	fmt.Println(res.Reports[0].Estimate)
func (c *Cluster) Watch(job Job, path string, opts Options) (*Watch, error) {
	return live.Open(c.env, core.JobQuery([]Job{job}, path, opts))
}

// WatchMulti runs the shared-pass multi-statistic workflow once and
// keeps every statistic's resample set maintainable under appends: every
// statistic rides the one maintained sample, so a Refresh costs a single
// delta scan no matter how many statistics are watched.
func (c *Cluster) WatchMulti(jset []Job, path string, opts Options) (*Watch, error) {
	return live.Open(c.env, core.JobQuery(jset, path, opts))
}

// WatchGrouped runs the grouped workflow once and keeps every group's
// resample set maintainable under appends — including groups that first
// appear in appended data.
func (c *Cluster) WatchGrouped(job Job, route Route, path string, opts Options) (*Watch, error) {
	return live.Open(c.env, core.KeyedJobQuery(job, route, path, opts))
}
