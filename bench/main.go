// Command bench is the repo's end-to-end benchmark (see README.md and
// ../BENCHMARK.json). It builds a cluster, generates its input from
// -seed, serves earld's handler in-process on loopback, drives it with
// closed-loop clients, checks every answer against a plain-Go oracle
// and prints each metric by name and unit.
//
//	bash bench/run.sh -workload query_sampled -seed 1 -seconds 24 -trace 0
//	bash bench/run.sh -workload all -trace 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics with -trace 0,
// the per-layer metrics with -trace 1). The lines before it are the
// readable summary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

var errIncorrect = errors.New("correctness gate failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Uint64("seed", 1, "seed of every generated input and query")
		seconds = fs.Float64("seconds", 24, "measured seconds per run, split over the repetitions")
		trace   = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		outDir  = fs.String("out", "out", "directory the traced pass writes trace-<workload>.json into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		return errors.New("usage: -workload <name|all> -seed N -seconds S -trace <0|1>")
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{seed: *seed, seconds: *seconds, reps: 3, records: 1_000_000, procs: procs, calRounds: 40, outDir: *outDir}

	var todo []*workloadDef
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		todo = []*workloadDef{w}
	}
	incorrect := false
	for _, w := range todo {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, cfg)
		} else {
			res, err = runEndToEnd(w, cfg)
		}
		if err != nil {
			return err
		}
		if err := res.print(stdout); err != nil {
			return err
		}
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run: the contract's last line plus the
// readable detail printed above it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	summary summary
}

// summary is the readable document: every metric with its sample
// count, per-repetition values and their relative spread.
type summary struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Clients    int               `json:"clients"`
	Metrics    map[string]detail `json:"metrics"`
	Problems   []string          `json:"problems"`
	Notes      []string          `json:"notes,omitempty"`
	// Slowdown is the box's speed reading around each repetition's
	// set-up and timed phase (calibrate.go): 1 is the reference speed.
	Slowdown  []float64 `json:"box_slowdown,omitempty"`
	TraceFile string    `json:"trace_file,omitempty"`
	Ranking   []string  `json:"layers_by_self_time,omitempty"`
	Claim     *string   `json:"claim"` // always null: this benchmark claims no gain
}

type detail struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Reps    []float64 `json:"repetitions,omitempty"`
	Spread  float64   `json:"spread,omitempty"`
	// Raw holds a timing's per-repetition values as the clock read
	// them, before scaling to the reference speed.
	Raw []float64 `json:"raw_repetitions,omitempty"`
}

func (r *result) print(w io.Writer) error {
	doc, err := json.MarshalIndent(r.summary, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", doc, line)
	return err
}

// runEndToEnd measures w with tracing off and reports each end-to-end
// metric as the median of the repetitions.
func runEndToEnd(w *workloadDef, cfg runConfig) (*result, error) {
	reps, err := measure(w, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]value{}}
	res.summary = summary{Workload: w.name, Seed: cfg.seed, GOMAXPROCS: cfg.procs, Clients: w.clients(cfg.procs), Metrics: map[string]detail{}}
	per, raw := map[string][]float64{}, map[string][]float64{}
	samples := map[string]int{}
	// timing records a wall-clock reading and its value at the reference
	// speed: a time shrinks by the box's slowdown, a rate grows by it.
	timing := func(name string, v, atReference float64) {
		raw[name] = append(raw[name], v)
		per[name] = append(per[name], atReference)
	}
	for _, r := range reps {
		p := r.phase
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.summary.Slowdown = append(res.summary.Slowdown, r.setupSlow, r.timedSlow)
		timing("setup_s", r.setupS, r.setupS/r.setupSlow)
		per["heap_live_mb"] = append(per["heap_live_mb"], r.heapMB)
		rate := float64(p.unit(w)) / p.wall.Seconds()
		timing("ops_per_s", rate, rate*r.timedSlow)
		samples["ops_per_s"] += p.unit(w)
		if p.checks > 0 {
			per["ci_coverage"] = append(per["ci_coverage"], float64(p.covered)/float64(p.checks))
			samples["ci_coverage"] += p.checks
		}
		if len(p.lat) > 0 {
			p50, p90 := percentile(p.lat, 0.50), percentile(p.lat, 0.90)
			timing("lat_ms_p50", p50, p50/r.timedSlow)
			timing("lat_ms_p90", p90, p90/r.timedSlow)
			samples["lat_ms_p50"] += len(p.lat)
			samples["lat_ms_p90"] += len(p.lat)
			if !supportsPercentile(len(p.lat), 0.90) {
				res.summary.Notes = append(res.summary.Notes, fmt.Sprintf(
					"lat_ms_p90: a repetition has %d samples, fewer than ten beyond the percentile", len(p.lat)))
			}
		}
	}
	for _, m := range endToEnd {
		xs := per[m.Name]
		if len(xs) != len(reps) {
			return nil, fmt.Errorf("%s: %s has %d of %d repetitions", w.name, m.Name, len(xs), len(reps))
		}
		v := median(xs)
		res.Metrics[m.Name] = value{v, m.Unit}
		res.summary.Metrics[m.Name] = detail{Value: v, Unit: m.Unit, Samples: samples[m.Name], Reps: xs, Spread: relSpread(xs), Raw: raw[m.Name]}
	}
	res.summary.Problems = gate(w, reps)
	res.Correct = len(res.summary.Problems) == 0 && res.Failed == 0
	return res, nil
}
