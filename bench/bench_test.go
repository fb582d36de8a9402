package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests hold the
// program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram: BENCHMARK.json and the program's
// own tables name the same workloads and metrics, with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file says %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why over 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: file %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: name, bound %v or direction %q out of contract", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: file %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer name %q out of contract", m.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a thirtieth
// of the size, and checks each run emits exactly the metrics the
// tables list, with no failed op.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: 0.3, reps: 1, records: 30_000, procs: min(runtime.NumCPU(), 4), calRounds: 3, outDir: t.TempDir()}
	runtime.GOMAXPROCS(cfg.procs)
	for i := range workloads {
		w := &workloads[i]
		for _, mode := range []struct {
			name string
			run  func(*workloadDef, runConfig) (*result, error)
			defs []metricDef
		}{{"end_to_end", runEndToEnd, endToEnd}, {"traced", runTraced, perLayer}} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				res, err := mode.run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.summary.Problems)
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics emitted, %d listed", len(res.Metrics), len(mode.defs))
				}
				for _, def := range mode.defs {
					v, ok := res.Metrics[def.Name]
					if !ok || v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: emitted %+v (present %v), want unit %s", def.Name, v, ok, def.Unit)
					}
				}
			})
		}
	}
}

// TestOracleAgreesWithExactJob: the harness's plain-Go answers match
// the system's own exact (full-scan) job on a 10 k-record file.
func TestOracleAgreesWithExactJob(t *testing.T) {
	vals, err := workload.NumericSpec{Dist: workload.Zipf, N: 10_000, Seed: 7}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnv(core.EnvConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/t", workload.EncodeLinesFixed(vals)); err != nil {
		t.Fatal(err)
	}
	names := []string{"mean", "p50", "p95", "count"}
	want := exactStats(names, vals)
	for i, name := range names {
		job, err := jobs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := core.RunExactJob(env, job, "/t", 0)
		if err != nil || n != len(vals) {
			t.Fatalf("%s: RunExactJob read %d records, err %v", name, n, err)
		}
		// Stored records keep ten significant digits.
		if math.Abs(got-want[i]) > 1e-8*math.Abs(want[i]) {
			t.Errorf("%s: oracle %v, exact job %v", name, want[i], got)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := relSpread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("relSpread = %v, want 0.3", got)
	}
	if !supportsPercentile(200, 0.95) || supportsPercentile(199, 0.95) || !supportsPercentile(100, 0.90) {
		t.Error("supportsPercentile: want ten samples beyond the percentile")
	}
	if got := quantileType7([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("quantileType7 = %v, want 2.5", got)
	}
}

// TestSelfTimes: a span's self time is its duration minus what its
// children cover — the sum for children replayed one after another
// (even outside the parent's interval), the union for children that
// ran in parallel.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "serve.http", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "core.runplan", Start: 200, End: 280},
		// replayed one after another, after the parent returned
		{ID: 3, Parent: 2, Op: 1, Name: "sampling.pilot", Start: 300, End: 320},
		{ID: 4, Parent: 2, Op: 1, Name: "sampling.poolfill", Start: 320, End: 360},
		// two mappers loading in parallel inside the pool fill
		{ID: 5, Parent: 4, Op: 1, Name: "colseg.load", Start: 320, End: 345},
		{ID: 6, Parent: 4, Op: 1, Name: "colseg.load", Start: 325, End: 350},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 20, 4: 10, 5: 25, 6: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	st := foldSpans(spans)
	if got := st.dur["colseg.load"]; len(got) != 1 || got[0] != 50e-6 {
		t.Errorf("colseg.load per-op duration = %v, want one sample of 50 ns", got)
	}
	if got := rankLayers(st); got[0] != "colseg" {
		t.Errorf("layers by self time = %v, want colseg first", got)
	}
}
