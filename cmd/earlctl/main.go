// Command earlctl runs one EARL query end to end on the simulated
// cluster: it generates a synthetic dataset, runs the requested
// statistics with an error bound, and prints the early result next to
// the exact one.
//
//	earlctl -job mean -dist uniform -n 1000000 -sigma 0.05
//	earlctl -job median -dist pareto -n 500000 -sigma 0.03 -sampler post-map
//	earlctl -job p99 -dist zipf -n 1000000
//	earlctl -job kmeans -n 200000 -k 5
//	earlctl -job mean -n 400000 -kill 3,4   # fault-tolerance demo (§3.4)
//	earlctl -job mean -n 500000 -watch 3    # continuous ingest: 3 append+refresh cycles
//
// Every numeric invocation is one query-plan spec (earl.PlanSpec) — the
// same composable σ/π/γ algebra, and the same spec validation, earld's
// HTTP API and the earl library expose. Repeating -job runs the
// statistics as ONE shared-pass query — one pilot, one sample, one pass
// over the records — printing one report per statistic (and -watch
// maintains them all under one refresh per append). -filter, -derive and
// -by add σ, π and γ; the filter is pushed below sampling, so sample
// sizing and the reported confidence intervals are relative to the
// filtered subpopulation:
//
//	earlctl -job mean -job p50 -job p95 -job count -n 1000000
//	earlctl -job mean -filter "v > 50" -n 1000000
//	earlctl -job p95 -filter "v > 0" -derive "log(v)" -n 500000
//	earlctl -job mean -by "floor(v / 25)" -n 500000      # grouped by bucket
//	earlctl -job mean -by key -keys 12 -n 500000         # grouped by record key
//	earlctl -job mean -filter "v < 10" -watch 3          # maintained plan
//
// A spec with no filter, derive or group-by also prints each statistic's
// exact answer. -kill, -journal, -compact and -watch apply to every
// shape.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/earl"
	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// errUsage signals that the FlagSet already reported the problem (and
// usage) to stderr; main exits non-zero without repeating it.
var errUsage = errors.New("earlctl: invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

// run is the testable entry point: flags in, report text on stdout,
// diagnostics (flag errors, usage) on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("earlctl", flag.ContinueOnError)
	var jobNames jobListFlag
	fs.Var(&jobNames, "job", "mean|sum|count|median|variance|stddev|proportion|p90|p99|kmeans; repeat for one shared-pass multi-statistic query")
	var (
		dist    = fs.String("dist", "uniform", "uniform|gaussian|zipf|pareto (numeric jobs)")
		n       = fs.Int("n", 1_000_000, "records to generate")
		sigma   = fs.Float64("sigma", 0.05, "target error bound σ")
		sampler = fs.String("sampler", "pre-map", "pre-map|post-map")
		seed    = fs.Uint64("seed", 1, "deterministic seed")
		k       = fs.Int("k", 4, "clusters (kmeans)")
		kill    = fs.String("kill", "", "comma-separated node ids to kill mid-job")
		nodes   = fs.Int("nodes", 5, "cluster size")
		par     = fs.Int("parallelism", 0, "resampling worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
		watch   = fs.Int("watch", 0, "continuous ingest: append+refresh cycles after the first answer")
		appendN = fs.Int("append-n", 0, "records per appended batch (-watch); n/10 if 0")
		filter  = fs.String("filter", "", "query plan σ: boolean expression records must satisfy, e.g. 'v > 50 && v < 90'")
		derive  = fs.String("derive", "", "query plan π: numeric expression replacing the analyzed value, e.g. 'log(v)'")
		by      = fs.String("by", "", "query plan γ: 'key' or a numeric bucketing expression, e.g. 'floor(v / 25)'")
		keys    = fs.Int("keys", 8, "distinct keys for generated key\\tvalue data (plans that read key)")
		compact = fs.Bool("compact", false, "after the run, compact /data's columnar sidecar to full coverage and report it")
		journal = fs.Bool("journal", false, "after the run, print the DFS commit journal's health counters")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	cluster, err := earl.NewCluster(earl.ClusterConfig{DataNodes: *nodes, Seed: *seed})
	if err != nil {
		return err
	}

	if len(jobNames) == 0 {
		jobNames = jobListFlag{"mean"}
	}
	for _, name := range jobNames {
		if name == "kmeans" && len(jobNames) > 1 {
			return fmt.Errorf("kmeans cannot join a multi-statistic query")
		}
	}
	if jobNames[0] == "kmeans" {
		if *filter != "" || *derive != "" || *by != "" {
			return fmt.Errorf("kmeans does not take -filter/-derive/-by")
		}
		if *compact || *watch > 0 || *kill != "" {
			return fmt.Errorf("kmeans does not take -compact, -watch or -kill")
		}
		return runKMeans(stdout, cluster, *n, *k, *sigma, *seed)
	}
	if *n <= 0 {
		return fmt.Errorf("need -n > 0")
	}

	// Normalize and compile up front: positioned expression errors surface
	// before any data is generated, and the compiled plan's input format
	// decides which generator to run.
	spec, err := earl.PlanSpec{
		Path: "/data", Stats: jobNames, Filter: *filter, Derive: *derive, GroupBy: *by,
		Sigma: *sigma, Sampler: *sampler, Seed: *seed + 7,
	}.Normalize()
	if err != nil {
		return err
	}
	prog, err := spec.Compile()
	if err != nil {
		return err
	}
	// A degenerate "by key" compiles to a nil program (the tab-separated
	// route), so it needs KV data too.
	kv := spec.GroupBy == "key" || (prog != nil && prog.InputFormat() == colscan.FormatKV)
	data := *dist
	if kv {
		data = fmt.Sprintf("%d-key", *keys)
	}
	writeBatch := func(n int, seed uint64, first bool) error {
		if kv {
			recs, err := workload.KVSpec{Keys: *keys, N: n, Seed: seed}.Generate()
			if err != nil {
				return err
			}
			if first {
				return cluster.WriteFile("/data", workload.EncodeStrings(recs))
			}
			return cluster.Append("/data", workload.EncodeStrings(recs))
		}
		xs, err := genValues(spec.Stats[0], *dist, n, seed)
		if err != nil {
			return err
		}
		if first {
			return cluster.WriteValues("/data", xs)
		}
		return cluster.AppendValues("/data", xs)
	}
	if err := writeBatch(*n, *seed, true); err != nil {
		return err
	}
	cluster.ResetMetrics()

	fmt.Fprintf(stdout, "plan         : %s over %d %s records (σ=%.3g, %s sampling)\n",
		planDesc(spec), *n, data, spec.Sigma, spec.Sampler)

	killWait := startKills(stdout, stderr, cluster, *kill)
	opts := earl.Options{Parallelism: *par}
	var res *earl.PlanResult
	if *watch > 0 {
		w, err := cluster.WatchPlan(spec, opts)
		killWait()
		if err != nil {
			return err
		}
		defer w.Close()
		err = watchLoop(stdout, cluster, w, watchParams{
			n: *n, cycles: *watch, appendN: *appendN, seed: *seed,
			appendBatch: func(n int, seed uint64) error { return writeBatch(n, seed, false) },
		})
		if err != nil {
			return err
		}
		res = w.Result()
	} else {
		res, err = cluster.RunPlan(spec, opts)
		killWait()
		if err != nil {
			return err
		}
		m := cluster.Metrics()
		printPlanResult(stdout, res)
		fmt.Fprintf(stdout, "I/O          : %d records / %.2f MB read\n",
			m.RecordsRead, float64(m.BytesRead)/(1<<20))
	}
	if err := exactReport(stdout, cluster, spec, res); err != nil {
		return err
	}
	if *compact {
		if err := compactReport(stdout, cluster); err != nil {
			return err
		}
	}
	if *journal {
		journalReport(stdout, cluster)
	}
	return nil
}

// startKills fails the comma-separated node ids once the run has mapped
// its first records, and returns the function that stops it and waits.
// The kill goroutine shares stdout with the report printing, so run()
// calls the returned wait before writing anything else — the injected
// io.Writer is not assumed to be safe for concurrent use.
func startKills(stdout, stderr io.Writer, cluster *earl.Cluster, kill string) (wait func()) {
	stop := make(chan struct{})
	done := make(chan struct{})
	wait = func() {
		close(stop)
		<-done
	}
	if kill == "" {
		close(done)
		return wait
	}
	go func() {
		defer close(done)
		for cluster.Metrics().RecordsMapped < 100 {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
		for _, tok := range strings.Split(kill, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(stderr, "bad node id %q\n", tok)
				continue
			}
			if err := cluster.KillNode(id); err != nil {
				fmt.Fprintln(stderr, err)
			} else {
				fmt.Fprintf(stdout, "!! killed node %d mid-job\n", id)
			}
		}
	}()
	return wait
}

// exactReport recomputes every statistic of a spec with no filter,
// derive or group-by exactly over /data (the stock-Hadoop baseline) and
// prints it beside the query's answer.
func exactReport(stdout io.Writer, cluster *earl.Cluster, spec earl.PlanSpec, res *earl.PlanResult) error {
	if spec.Filter != "" || spec.Derive != "" || spec.GroupBy != "" {
		return nil
	}
	jset, err := spec.JobSet()
	if err != nil {
		return err
	}
	for i, job := range jset {
		exact, _, err := cluster.RunExact(job, "/data")
		if err != nil {
			return err
		}
		rep := res.Reports[i]
		fmt.Fprintf(stdout, "exact        : %-12s %.6g  (answer off by %.3f%%)\n",
			rep.Job, exact, 100*relErr(rep.Estimate, exact))
	}
	return nil
}

// journalReport prints the DFS commit journal's health counters — and,
// on a cluster rebuilt by earl.RecoverCluster, what the replay found.
func journalReport(stdout io.Writer, cluster *earl.Cluster) {
	js := cluster.JournalStats()
	fmt.Fprintf(stdout, "journal      : %d commit(s), %.2f MB log, %d snapshot pin(s)\n",
		js.Commits, float64(js.Bytes)/(1<<20), js.Pins)
	if js.Recovered {
		fmt.Fprintf(stdout, "recovery     : replayed %d commit(s) (%.2f MB); torn tail=%v, %d byte(s) dropped\n",
			js.Recovery.Commits, float64(js.Recovery.Bytes)/(1<<20), js.Recovery.TornTail, js.Recovery.DroppedBytes)
	}
}

// compactReport compacts /data's persistent columnar sidecar and prints
// what happened: backfilled or re-encoded to full coverage, or already
// fully covered from ingest.
func compactReport(stdout io.Writer, cluster *earl.Cluster) error {
	st, err := cluster.Compact("/data")
	if err != nil {
		return err
	}
	action := "already covered"
	if st.Rebuilt {
		action = "rebuilt"
	}
	fmt.Fprintf(stdout, "compact      : %s — %d chunk(s), %.2f MB sidecar covering %.2f MB of /data\n",
		action, st.Chunks, float64(st.SidecarBytes)/(1<<20), float64(st.CoveredBytes)/(1<<20))
	return nil
}

// jobListFlag collects repeated -job flags; several jobs run as one
// shared-pass multi-statistic query.
type jobListFlag []string

// String implements flag.Value.
func (j *jobListFlag) String() string { return strings.Join(*j, ",") }

// Set implements flag.Value.
func (j *jobListFlag) Set(v string) error {
	*j = append(*j, v)
	return nil
}

// planDesc renders a normalized plan spec for display:
// "mean+p95 where (v > 10) derive (v * 2) by floor(v / 25)".
func planDesc(spec earl.PlanSpec) string {
	desc := strings.Join(spec.Stats, "+")
	if spec.Filter != "" {
		desc += " where " + spec.Filter
	}
	if spec.Derive != "" {
		desc += " derive " + spec.Derive
	}
	if spec.GroupBy != "" {
		desc += " by " + spec.GroupBy
	}
	return desc
}

// printPlanResult prints either shape of a plan result: one line per
// statistic for scalar plans, one line per group (sorted) for grouped
// ones, then any mapper tasks the run lost to node failures.
func printPlanResult(stdout io.Writer, res *earl.PlanResult) {
	if res.Groups != nil {
		g := res.Groups
		fmt.Fprintf(stdout, "groups       : %d groups of %s, sample %d, %d iteration(s), converged=%v\n",
			len(g.Groups), g.Job, g.SampleSize, g.Iterations, g.Converged)
		names := make([]string, 0, len(g.Groups))
		for name := range g.Groups {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			gr := g.Groups[name]
			fmt.Fprintf(stdout, "  %-12s: %.6g (cv %.4f, sample %d)\n", name, gr.Estimate, gr.CV, gr.SampleSize)
		}
		printFailures(stdout, g.FailedMaps)
		return
	}
	for _, rep := range res.Reports {
		mode := ""
		if rep.UsedFull {
			mode = " — exact full-data run, sampling could not pay off"
		}
		fmt.Fprintf(stdout, "%-12s : %.6g  (cv %.4f, 95%% CI [%.6g, %.6g], B=%d, sample %d, converged=%v)%s\n",
			rep.Job, rep.Estimate, rep.CV, rep.CILo, rep.CIHi, rep.B, rep.SampleSize, rep.Converged, mode)
	}
	printFailures(stdout, res.Reports[0].FailedMaps)
}

// printFailures notes mapper tasks lost to node failures (§3.4).
func printFailures(stdout io.Writer, failed int) {
	if failed > 0 {
		fmt.Fprintf(stdout, "failures     : %d mapper task(s) lost, query finished anyway (§3.4)\n", failed)
	}
}

// relErr returns |est-exact|/|exact| (0 when exact is 0).
func relErr(est, exact float64) float64 {
	if exact == 0 {
		return 0
	}
	return math.Abs((est - exact) / exact)
}

// genValues materialises the synthetic numeric dataset for a job.
func genValues(jobName, dist string, n int, seed uint64) ([]float64, error) {
	if jobName == "proportion" {
		return workload.CategoricalSpec{P: 0.35, N: n, Seed: seed}.Generate()
	}
	return workload.NumericSpec{Dist: workload.Dist(dist), N: n, Seed: seed}.Generate()
}

// watchParams bundles the continuous-ingest demo knobs.
type watchParams struct {
	n, cycles, appendN int
	seed               uint64
	// appendBatch appends n generated records to /data.
	appendBatch func(n int, seed uint64) error
}

// watchLoop is the maintained-query demo for every query shape: the
// first answer, then repeated append + Refresh cycles printing each
// refresh's cost next to what is on disk.
func watchLoop(stdout io.Writer, cluster *earl.Cluster, w *earl.Watch, p watchParams) error {
	fmt.Fprintln(stdout, "first answer :")
	printPlanResult(stdout, w.Result())

	appendN := p.appendN
	if appendN <= 0 {
		appendN = max(p.n/10, 1)
	}
	total := p.n
	for cycle := 1; cycle <= p.cycles; cycle++ {
		if err := p.appendBatch(appendN, p.seed+uint64(100+cycle)); err != nil {
			return err
		}
		total += appendN
		before := cluster.Metrics()
		res, err := w.Refresh()
		if err != nil {
			return err
		}
		cost := cluster.Metrics().Sub(before)
		fmt.Fprintf(stdout, "refresh %-2d   : +%d records; read %d records / %.2f KB (maintained sample %d) — vs %d records on disk\n",
			cycle, appendN, cost.RecordsRead, float64(cost.BytesRead)/(1<<10), w.SampleSize(), total)
		printPlanResult(stdout, res)
	}
	return nil
}

func runKMeans(stdout io.Writer, cluster *earl.Cluster, n, k int, sigma float64, seed uint64) error {
	pts, truth, err := workload.MixtureSpec{
		K: k, Dim: 2, N: n, Spread: 2, Sep: 120, Seed: seed,
	}.Generate()
	if err != nil {
		return err
	}
	if err := cluster.WriteFile("/pts", workload.EncodePoints(pts)); err != nil {
		return err
	}
	cluster.ResetMetrics()
	rep, err := cluster.RunKMeans("/pts", earl.KMeans{K: k, Seed: seed + 1}, earl.KMeansOptions{Sigma: sigma, Seed: seed + 2})
	if err != nil {
		return err
	}
	errRel, err := jobs.CentroidError(rep.Centers, truth)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "early K-Means: k=%d over %d points, sample %d (%.2f%%), cost cv %.4f, converged=%v\n",
		k, n, rep.SampleSize, 100*float64(rep.SampleSize)/float64(n), rep.CV, rep.Converged)
	fmt.Fprintf(stdout, "centroid error vs generator truth: %.2f%% (paper bound: 5%%)\n", 100*errRel)
	for i, c := range rep.Centers {
		fmt.Fprintf(stdout, "  center %d: %v\n", i, c)
	}
	return nil
}
