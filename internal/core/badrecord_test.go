package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colscan"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// poisonedData renders xs as records with count NaN records planted at
// even spacing (one: mid-file).
func poisonedData(xs []float64, count int) []byte {
	body := workload.EncodeLinesFixed(xs)
	lines := bytes.SplitAfter(body, []byte("\n"))
	every := len(lines) / (count + 1)
	var out bytes.Buffer
	for i, l := range lines {
		if i > 0 && i%every == 0 && i/every <= count {
			out.WriteString("NaN\n")
		}
		out.Write(l)
	}
	return out.Bytes()
}

// laxFloat is a custom parser with no validation of its own:
// strconv.ParseFloat accepts "NaN" and "Inf" without an error.
func laxFloat(line string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// laxKV is the keyed counterpart of laxFloat.
func laxKV(line string) (string, float64, error) {
	k, v, ok := strings.Cut(line, "\t")
	if !ok {
		return "", 0, fmt.Errorf("no tab in %q", line)
	}
	f, err := laxFloat(v)
	return k, f, err
}

// customJob strips a built-in job's ScanFormat and swaps in parse: the
// samplers then apply it themselves.
func customJob(job jobs.Numeric, parse func(string) (float64, error)) jobs.Numeric {
	job.ScanFormat = colscan.FormatNone
	job.Parse = parse
	return job
}

// TestRunRejectsNaNRecord is the headline bugfix regression: a NaN
// record mid-file must fail the run with a clean errors.Is-able
// ErrBadRecord under BOTH samplers — never corrupt the estimate —
// whether a built-in format decodes it or a custom parser lets it
// through without an error. ForceN covers the whole file so the pre-map
// sampler is guaranteed to meet the poisoned record: hot splits are
// decoded whole under a built-in format, while a custom parser only
// ever sees the lines drawn (the last few of a region are never
// reached), hence the denser poison.
func TestRunRejectsNaNRecord(t *testing.T) {
	decoders := []struct {
		name   string
		job    jobs.Numeric
		poison int
	}{
		{"built-in format", jobs.Mean(), 1},
		{"lax custom parser", customJob(jobs.Mean(), laxFloat), 40},
	}
	for _, d := range decoders {
		name, job := d.name, d.job
		for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
			env, err := NewEnv(EnvConfig{BlockSize: 1 << 12, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 4000, Seed: 7}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if err := env.FS.WriteFile("/data", poisonedData(xs, d.poison)); err != nil {
				t.Fatal(err)
			}
			_, err = Run(env, job, "/data", Options{
				Sampler: sampler, Seed: 8, ForceB: 8, ForceN: 4000 + d.poison,
			})
			if err == nil {
				t.Fatalf("%s, %s: NaN record did not fail the run", name, sampler)
			}
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("%s, %s: error %v is not errors.Is(ErrBadRecord)", name, sampler, err)
			}
		}
	}
}

// TestRunGroupedRejectsNaNRecord covers the keyed route: the columnar
// KV decoder and a lax custom parser's output are both rejected, under
// both samplers.
func TestRunGroupedRejectsNaNRecord(t *testing.T) {
	routes := []struct {
		name  string
		route Route
		every int // a NaN record is planted mid-way through every this many
	}{
		{"built-in format", TabRoute(), 3000},
		{"lax custom parser", Route{Parse: laxKV}, 75},
	}
	for _, r := range routes {
		name, route := r.name, r.route
		for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
			env, err := NewEnv(EnvConfig{BlockSize: 1 << 12, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for i := 0; i < 3000; i++ {
				if i%r.every == r.every/2 {
					buf.WriteString("g1\tNaN\n")
				}
				key := "g0"
				if i%2 == 1 {
					key = "g1"
				}
				fmt.Fprintf(&buf, "%s\t%0.4f\n", key, float64(i%97)+0.5)
			}
			if err := env.FS.WriteFile("/kv", buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			_, err = RunGrouped(env, jobs.Mean(), route, "/kv", Options{
				Sampler: sampler, Seed: 10, ForceB: 8, ForceN: 3000 + 3000/r.every,
			})
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("%s, %s: grouped run over NaN record: %v", name, sampler, err)
			}
		}
	}
}

// TestCustomParserMatchesBuiltinFormat pins that nothing behind the
// samplers can tell how a record was decoded: the same file through a
// job with its ScanFormat stripped (its own Parse, applied by the
// samplers) and through the intact job gives identical reports — one
// statistic and several, under both samplers, at any Parallelism.
func TestCustomParserMatchesBuiltinFormat(t *testing.T) {
	p90, err := jobs.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
		for _, par := range []int{1, 4} {
			run := func(custom bool) ([]Report, Report) {
				env, _ := testEnv(t, 60_000, workload.Uniform, 31)
				jset := []jobs.Numeric{jobs.Median(), jobs.Mean(), p90}
				if custom {
					for i, job := range jset {
						jset[i] = customJob(job, job.Parse)
					}
				}
				opts := Options{Sigma: 0.05, Seed: 32, Sampler: sampler, Parallelism: par}
				one, err := Run(env, jset[0], "/data", opts)
				if err != nil {
					t.Fatalf("%s par=%d custom=%v: %v", sampler, par, custom, err)
				}
				multi, err := RunMulti(env, jset, "/data", opts)
				if err != nil {
					t.Fatalf("%s par=%d custom=%v: %v", sampler, par, custom, err)
				}
				return multi, one
			}
			builtinMulti, builtinOne := run(false)
			customMulti, customOne := run(true)
			if !reflect.DeepEqual(builtinOne, customOne) {
				t.Fatalf("%s par=%d: custom-parser report diverged:\n%+v\n%+v", sampler, par, builtinOne, customOne)
			}
			if !reflect.DeepEqual(builtinMulti, customMulti) {
				t.Fatalf("%s par=%d: custom-parser multi reports diverged:\n%+v\n%+v", sampler, par, builtinMulti, customMulti)
			}
		}
	}
}

// kvData renders 30k `key\tvalue` records over three keys — the shared
// fixture for the grouped columnar equivalence and determinism tests.
func kvData() []byte {
	var buf bytes.Buffer
	keys := []string{"api", "db", "web"}
	for i := 0; i < 30_000; i++ {
		buf.WriteString(keys[i%3])
		buf.WriteString("\t")
		buf.Write(workload.EncodeLinesFixed([]float64{float64((i*i)%997) / 7}))
	}
	return buf.Bytes()
}

// TestGroupedCustomParserMatchesBuiltinFormat is the keyed-route
// counterpart: Route{Parse: TabKV} (parsed by the samplers) vs
// TabRoute() (decoded by colscan) on the same data and seed give
// identical grouped reports, under both samplers, at any Parallelism.
func TestGroupedCustomParserMatchesBuiltinFormat(t *testing.T) {
	for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
		for _, par := range []int{1, 4} {
			run := func(route Route) GroupedReport {
				env, err := NewEnv(EnvConfig{BlockSize: 1 << 14, Seed: 41})
				if err != nil {
					t.Fatal(err)
				}
				if err := env.FS.WriteFile("/kv", kvData()); err != nil {
					t.Fatal(err)
				}
				rep, err := RunGrouped(env, jobs.Mean(), route, "/kv", Options{
					Sigma: 0.05, Seed: 42, Sampler: sampler, Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			builtin := run(TabRoute())
			custom := run(Route{Parse: TabKV})
			if !reflect.DeepEqual(builtin, custom) {
				t.Fatalf("%s par=%d: custom-parser grouped report diverged:\n%+v\n%+v", sampler, par, builtin, custom)
			}
		}
	}
}

// TestGroupedColumnarDeterministicAcrossParallelism extends the
// fixed-seed golden contract to the vectorized grouped route: the same
// seed produces bit-identical grouped reports at any Parallelism, even
// though splits are decoded and folded by a worker pool.
func TestGroupedColumnarDeterministicAcrossParallelism(t *testing.T) {
	runAt := func(par int) GroupedReport {
		env, err := NewEnv(EnvConfig{BlockSize: 1 << 14, Seed: 71})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.FS.WriteFile("/kv", kvData()); err != nil {
			t.Fatal(err)
		}
		rep, err := RunGrouped(env, jobs.Mean(), TabRoute(), "/kv", Options{
			Sigma: 0.05, Seed: 72, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	golden := runAt(1)
	for _, par := range []int{4, 0} {
		if got := runAt(par); !reflect.DeepEqual(golden, got) {
			t.Fatalf("Parallelism=%d grouped reports differ from sequential:\n%+v\n%+v", par, golden, got)
		}
	}
}
