// Package core is EARL itself: the Early Accurate Result Library driver
// that ties the substrates together into the paper's architecture
// (Fig. 1) —
//
//	sampling stage  →  user's job on B resamples  →  accuracy estimation
//	        ↑  expand Δs and iterate while cv > σ  ↓
//
// A Run proceeds exactly as §2–§4 describe:
//
//  1. A pilot sample is drawn and SSABE (§3.2) estimates the number of
//     bootstraps B and the sample size n in cheap local mode, before any
//     cluster job starts. If B×n ≥ N the driver falls back to the exact
//     job over the full data set.
//  2. A sampling MR job starts: long-lived mapper tasks sample records
//     from their owned splits (pre-map, Algorithm 2) or from pooled
//     parsed records (post-map, Algorithm 1) toward their share of the
//     round's target, and the shuffle routes them to the reducers.
//  3. The reducers maintain B bootstrap resamples and their incremental
//     states (delta maintenance, §4.1): each round they fold what the
//     round drew, before the mappers finish the run, and publish the
//     partition's error.
//  4. The round's ruling is the reducer→mapper feedback layer of
//     §2.1/§3.3: once every partition has published, it decides once —
//     terminate, or double the target — and the mappers, alive across
//     rounds, keep feeding. The paper runs this exchange through error
//     files on the DFS that the mappers poll; here the rounds are one
//     loop and only the files' cost is kept, charged to simcost per
//     round (a small replicated write per partition, a seek and read
//     per mapper per partition), so a sampled run writes nothing to the
//     DFS or its journal.
//  5. The final result is corrected for the sampling fraction p via the
//     user job's correct() and reported with its cv and a percentile
//     confidence interval.
//
// Node failures during the job do not abort it: surviving data yields a
// result with its achieved accuracy (§3.4).
//
// # One driver, one generic engine
//
// Every sampled run — scalar, multi-statistic and grouped, one-shot or
// the opening run of a maintained query — starts at ONE entry point,
// Execute (driver.go), which hands back the run's state when asked to
// retain it, and executes on ONE generic engine (engine.go): the
// long-lived sampling mappers, the loop of rounds with its feedback
// ruling, the doubling expansion schedule and the §3.4 finish are
// written once. Records travel one way through it: the samplers are the
// only code of a sampled run that ever sees a record as a line, and
// everything from a recordSource out handles parsed columns
// (colscan.Cols) — decoded by a built-in columnar format or, where the
// samplers read, by the user's own parser (decode, source.go); nothing
// downstream can tell which. The engine is parameterized over one small
// abstraction: a sink per reduce partition folds each round's records in
// canonical order, answers the current error estimate and renders the
// reports (sinks.go). A scalar query is the one-key degenerate case (statSink:
// one resample set per statistic, all fed the shared sample); grouped
// queries route records by their own keys into per-group resample sets
// (groupSink). A multi-statistic query answers several statistics from
// one pilot, one sample and one pass over the records — per-statistic
// SSABE plans (the sample runs at the largest planned n, every
// statistic's B is its own) with per-statistic reports, at the IO cost
// of the single most demanding statistic.
//
// The exact fall-back (exact.go) is not on this engine: it is one
// column scan of the whole file — resident decoded blocks where env.Scan
// holds them, a line reader per split under the run's decode otherwise,
// σ/π through the plan's kernels — then each statistic over the
// survivors. It answers what the stock-Hadoop batch job (parse every
// line, shuffle, one reduce) answers, bit for bit, and charges what
// that job would. RunExactJob, the figures' stock baseline and the
// reference the sampled path is tested against, is the same pass.
//
// # A run, kept
//
// Asked to retain it, Execute hands back the run's state as a Retained
// (retained.go): the sink the run folded into and the streams it drew
// from — or, on the exact fall-back, an exactSink that folded the same
// one scan into an incremental reduce state per statistic. A maintained
// query (internal/live) keeps it, and Retained.Refresh grows it over
// what is appended to the file: a sampled run's sink takes the appended
// splits' delta at the sample's fraction and re-expands while σ is
// violated; an exact one scans the appended splits whole. How a sample
// grows — over a run's rounds or a refresh — is decided here alone.
package core

import (
	"log"

	"repro/internal/colscan"
	"repro/internal/colseg"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/simcost"
)

// Env bundles the simulated deployment a driver runs against.
//
// An Env is safe for concurrent use: the DFS, the cluster and the
// metrics are internally synchronized, and every sampled run's round
// loop keeps its state on its own stack, so concurrent
// Execute/Watch/Append callers share nothing but data.
//
// A run is an Env too, made by Open: it reads one pinned commit and
// charges its ledger, a child of the cluster's Metrics. Everything the
// run builds from its Env — samplers, round loop, SSABE, delta maintainers,
// the exact scan — charges that ledger, and each charge lands in the
// cluster's at once: the ledger is the run's exact cost under any
// overlap, and the cluster's Metrics stay the total.
type Env struct {
	FS *dfs.FileSystem
	// Cluster is the compute side: the nodes a run's tasks are placed
	// on, and which of them are alive.
	Cluster *mr.Cluster
	// Metrics is the cluster's cost ledger, or in a run's Env the run's.
	Metrics *simcost.Metrics
	// Scan is the shared decoded-block cache of the vectorized scan
	// path: K concurrent watches (or repeated runs) over one file
	// re-decode nothing. Never nil: NewEnv, RecoverEnv and Open set it.
	Scan *colscan.Cache
	// snap is the commit a run's every data read goes through, nil
	// outside a run. Mutations always use the live FS.
	snap *dfs.Snapshot
}

// View returns the data-read view: the run's pinned commit, or the live
// filesystem outside a run.
func (e *Env) View() dfs.View {
	if e.snap != nil {
		return e.snap
	}
	return e.FS
}

// Open starts a run: it pins the current commit as a snapshot whose
// reads charge ledger and returns the run's Env — that snapshot as its
// data view, ledger as its Metrics — and the release that unpins the
// commit. ledger is a child of e.Metrics for a
// caller that reads the run's cost, e.Metrics when nobody does.
func (e *Env) Open(ledger *simcost.Metrics) (run *Env, release func()) {
	snap := e.FS.Pin(ledger)
	return &Env{FS: e.FS, Cluster: e.Cluster, Metrics: ledger, Scan: e.Scan, snap: snap}, snap.Release
}

// openRun returns the Env a run reads and charges: e itself when e is
// already a run's, else a run Open makes on the cluster's Metrics. The
// release ends only a run it opened.
func (e *Env) openRun() (run *Env, release func()) {
	if e.snap != nil {
		return e, func() {}
	}
	return e.Open(e.Metrics)
}

// EnvConfig shapes a simulated deployment.
type EnvConfig struct {
	DataNodes   int   // cluster size; 5 (the paper's testbed) if 0
	BlockSize   int64 // DFS block size; dfs.DefaultBlockSize if 0
	Replication int   // block replicas; 3 if 0
	// CacheBytes bounds the decoded blocks no run holds in the scan
	// cache (colscan.DefaultCacheBytes if 0) — earld exposes it as
	// -cache-bytes.
	CacheBytes int64
	// DisableSidecars turns off persistent columnar sidecars end to
	// end: dfs skips encoding at ingest and the scan cache gets no
	// sidecar store, so every cold read text-decodes. The equivalence
	// goldens pin that results are bit-identical either way.
	DisableSidecars bool
	Seed            uint64
}

// defaulted fills EnvConfig's zero values with the paper's testbed
// shape so NewEnv and RecoverEnv agree on what a default cluster is.
func (cfg EnvConfig) defaulted() EnvConfig {
	if cfg.DataNodes <= 0 {
		cfg.DataNodes = 5
	}
	return cfg
}

// dfsConfig maps a defaulted EnvConfig onto the DFS's own config.
func (cfg EnvConfig) dfsConfig(metrics *simcost.Metrics) dfs.Config {
	return dfs.Config{
		BlockSize:       cfg.BlockSize,
		Replication:     cfg.Replication,
		DataNodes:       cfg.DataNodes,
		Metrics:         metrics,
		Seed:            cfg.Seed,
		DisableSidecars: cfg.DisableSidecars,
	}
}

// NewEnv builds a fresh simulated cluster: DFS, compute nodes and the
// cluster's root cost ledger.
func NewEnv(cfg EnvConfig) (*Env, error) {
	cfg = cfg.defaulted()
	metrics := &simcost.Metrics{}
	return envAround(cfg, dfs.New(cfg.dfsConfig(metrics)), metrics)
}

// RecoverEnv rebuilds a cluster from a commit-journal image (FS.
// JournalBytes of a previous — typically crashed — cluster), replaying
// every durable commit onto a fresh deployment shaped by cfg. A torn
// final record is truncated cleanly; interior corruption is refused
// (see dfs.Recover). The same cfg.Seed reproduces the same recovered
// state, so queries over the recovered cluster answer bit-identically
// to the original at the replayed commit point.
func RecoverEnv(cfg EnvConfig, image []byte) (*Env, dfs.RecoverStats, error) {
	cfg = cfg.defaulted()
	metrics := &simcost.Metrics{}
	fsys, rst, err := dfs.Recover(cfg.dfsConfig(metrics), image)
	if err != nil {
		return nil, rst, err
	}
	env, err := envAround(cfg, fsys, metrics)
	return env, rst, err
}

// envAround wires the compute nodes and scan cache around an existing DFS —
// the shared tail of NewEnv and RecoverEnv.
func envAround(cfg EnvConfig, fsys *dfs.FileSystem, metrics *simcost.Metrics) (*Env, error) {
	cluster, err := mr.NewCluster(cfg.DataNodes)
	if err != nil {
		return nil, err
	}
	scan := colscan.NewCache(cfg.CacheBytes)
	if !cfg.DisableSidecars {
		// Cold cache misses consult the persistent columnar sidecars
		// before paying a text decode. A sidecar that fails
		// verification is logged and the load falls back to text —
		// corruption costs speed, never a wrong answer.
		scan.SetStore(colseg.NewReader(fsys))
		scan.OnSidecarError(func(key colscan.BlockKey, err error) {
			log.Printf("colseg: sidecar read %s [%d,+%d): %v (falling back to text decode)",
				key.Path, key.Offset, key.Length, err)
		})
	}
	return &Env{FS: fsys, Cluster: cluster, Metrics: metrics, Scan: scan}, nil
}

// KillNode kills both the DataNode and the compute node with the given
// id — a whole-machine failure, the §3.4 scenario.
func (e *Env) KillNode(id int) error {
	if err := e.FS.KillDataNode(id); err != nil {
		return err
	}
	return e.Cluster.KillNode(id)
}

// ReviveNode brings a machine back.
func (e *Env) ReviveNode(id int) error {
	if err := e.FS.ReviveDataNode(id); err != nil {
		return err
	}
	return e.Cluster.ReviveNode(id)
}
