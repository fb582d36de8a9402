package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// stockExact is the oracle of the exact pass: job over path (through
// prog when non-nil) as the stock line-at-a-time MapReduce job the scan
// replaced — every line of each splitSize split read by its own
// LineReader and parsed (or evaluated by prog), the kept values
// shuffled to one reducer that applies the statistic. It charges the
// job's counters record by record as it goes, so the closed form
// runExact charges is checked against an independent count.
func stockExact(env *Env, job jobs.Numeric, path string, splitSize int64, prog *plan.Program) (float64, int, error) {
	view := env.View()
	splits, err := view.Splits(path, splitSize)
	if err != nil {
		return 0, 0, err
	}
	env.Metrics.Charge(simcost.Snapshot{JobStartups: 1, ReduceTasks: 1})
	var xs []float64
	for _, sp := range splits {
		env.Metrics.Charge(simcost.Snapshot{MapTasks: 1})
		rd, err := view.NewLineReader(sp, 0)
		if err != nil {
			return 0, 0, err
		}
		for rd.Next() {
			env.Metrics.Charge(simcost.Snapshot{RecordsRead: 1})
			keep, v := true, 0.0
			if prog != nil {
				keep, _, v, err = prog.EvalLine(rd.Text())
			} else {
				v, err = job.Parse(rd.Text())
			}
			if err != nil {
				return 0, 0, err
			}
			if keep {
				env.Metrics.Charge(simcost.Snapshot{RecordsMapped: 1, BytesShuffled: int64(len(exactKey)) + valueBytes, RecordsReduced: 1})
				xs = append(xs, v)
			}
		}
		if err := rd.Err(); err != nil {
			return 0, 0, err
		}
	}
	v, err := job.Statistic(xs)
	return v, len(xs), err
}

// makeResident decodes every every-th split of path into env.Scan, as a
// sampler's hot split would be, and returns the file's splits.
func makeResident(t testing.TB, env *Env, path string, format colscan.Format, every int) []dfs.Split {
	t.Helper()
	splits, err := env.FS.Splits(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	version, _ := env.FS.Version(path)
	size, _ := env.FS.Stat(path)
	for i, sp := range splits {
		if every > 0 && i%every == 0 {
			if _, err := colscan.LoadSplit(env.Scan, env.FS, path, version, size, sp.Offset, sp.Length, format); err != nil {
				t.Fatal(err)
			}
		}
	}
	return splits
}

// residency reports which splits have a block in env.Scan, and the
// cache's block count and bytes.
func residency(env *Env, path string, splits []dfs.Split, format colscan.Format) string {
	version, _ := env.FS.Version(path)
	var b bytes.Buffer
	for _, sp := range splits {
		_, ok := env.Scan.Peek(colscan.BlockKey{Path: path, Version: version, Offset: sp.Offset, Length: sp.Length, Format: format})
		fmt.Fprintf(&b, "%t ", ok)
	}
	st := env.Scan.Stats()
	fmt.Fprintf(&b, "blocks=%d bytes=%d", st.Blocks, st.Bytes)
	return b.String()
}

// TestExactScanMatchesStockJob holds the exact pass — RunExactJob, and
// runExact under a plan — to the stock MR job it replaced, on fresh
// identical clusters: the same estimate bit for bit, the same record
// count, the same simcost delta field by field, and env.Scan holding
// the same blocks before and after the scan. The grid: numeric records,
// key/value records under a filter and a derive, and a custom parser;
// one split and many; splits of the block size and of 4 KiB, which no
// resident block's key matches; sidecars on and off; no block resident,
// every other one, and all of them.
func TestExactScanMatchesStockJob(t *testing.T) {
	xs, err := workload.NumericSpec{Dist: workload.Zipf, N: 4000, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var kv bytes.Buffer
	for i, x := range xs {
		fmt.Fprintf(&kv, "k%d\t%g\n", i%4, x)
	}
	// A one-split file whose last newline is the first byte of a reader's
	// second 64 KiB fill: off by one there, and the charge is one fill short.
	fillEdge := append(bytes.Repeat([]byte("1\n"), 32767), "12\n"...)
	shapes := []struct {
		name string
		data []byte
		spec plan.Spec // Stats and the plan; Path is filled in
		job  jobs.Numeric
	}{
		{name: "numeric", data: workload.EncodeLinesFixed(xs), job: jobs.Median()},
		{name: "kv plan", data: kv.Bytes(), spec: plan.Spec{Stats: []string{"median"}, Filter: `key != "k0" && v > 2`, Derive: "v * 2 + 1"}},
		{name: "custom parser", data: workload.EncodeLinesFixed(xs), job: customJob(jobs.Median(), workload.DecodeLine)},
		{name: "fill edge", data: fillEdge, job: jobs.Mean()},
	}
	for _, sh := range shapes {
		for _, sz := range []struct{ block, split int64 }{{1 << 20, 0}, {1 << 20, 1 << 12}, {1 << 12, 0}} {
			for _, sidecars := range []bool{true, false} {
				for _, every := range []int{0, 2, 1} {
					blockSize, splitSize := sz.block, sz.split
					name := fmt.Sprintf("%s/block=%d/split=%d/sidecars=%t/resident-every=%d", sh.name, blockSize, splitSize, sidecars, every)
					run := func(scan bool) (float64, int, simcost.Snapshot) {
						env, err := NewEnv(EnvConfig{BlockSize: blockSize, DisableSidecars: !sidecars, Seed: 5})
						if err != nil {
							t.Fatal(err)
						}
						if err := env.FS.WriteFile("/data", sh.data); err != nil {
							t.Fatal(err)
						}
						job, prog := sh.job, (*plan.Program)(nil)
						if sh.spec.Stats != nil {
							spec := sh.spec
							spec.Path = "/data"
							pq, err := PreparePlan(spec, Options{})
							if err != nil {
								t.Fatal(err)
							}
							job, prog = pq.Jobs[0], pq.Prog
						}
						dec := ScalarDecode(job, prog)
						format := dec.Format
						if format == colscan.FormatNone {
							format = colscan.FormatNumeric // blocks another query left behind
						}
						splits := makeResident(t, env, "/data", format, every)
						before, cache := env.Metrics.Snapshot(), residency(env, "/data", splits, format)
						var v float64
						var n int
						switch {
						case !scan:
							v, n, err = stockExact(env, job, "/data", splitSize, prog)
						case prog == nil:
							v, n, err = RunExactJob(env, job, "/data", splitSize)
						default:
							var reps []Report
							if reps, err = runExact(env, []jobs.Numeric{job}, "/data", splitSize, dec, prog); err == nil {
								v, n = reps[0].Estimate, reps[0].SampleSize
							}
						}
						if after := residency(env, "/data", splits, format); scan && after != cache {
							t.Fatalf("%s: the scan changed env.Scan:\nbefore %s\nafter  %s", name, cache, after)
						}
						if err != nil {
							t.Fatalf("%s: scan=%t: %v", name, scan, err)
						}
						return v, n, env.Metrics.Snapshot().Sub(before)
					}
					sv, sn, scost := run(true)
					jv, jn, jcost := run(false)
					if math.Float64bits(sv) != math.Float64bits(jv) || sn != jn {
						t.Fatalf("%s: scan %v over %d records, stock job %v over %d", name, sv, sn, jv, jn)
					}
					if scost != jcost {
						t.Fatalf("%s: modelled cost differs:\nscan  %v\nstock %v", name, scost, jcost)
					}
				}
			}
		}
	}
}

// TestExactFallbackRejectsNaNRecord: a one-shot that falls back to the
// exact path over a file with one NaN line fails with ErrBadRecord even
// under a lax custom parser — the scan decodes through the same
// finiteness check as the samplers — instead of answering NaN.
func TestExactFallbackRejectsNaNRecord(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		env, err := NewEnv(EnvConfig{BlockSize: 1 << 14, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		xs, err := workload.NumericSpec{Dist: workload.Zipf, N: 3000, Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if err := env.FS.WriteFile("/data", poisonedData(xs, 1)); err != nil {
			t.Fatal(err)
		}
		rep, err := Run(env, customJob(jobs.Mean(), laxFloat), "/data", Options{Sigma: 0.0005, Seed: seed})
		if !errors.Is(err, ErrBadRecord) {
			t.Fatalf("seed %d: exact fall-back over a NaN record: %+v, %v", seed, rep, err)
		}
	}
}

// TestRunExactJobKeepsBadRecordCause: the exact pass over a NaN record
// fails with ErrBadRecord. (The pass has no task retries, so the cause
// is the error itself.)
func TestRunExactJobKeepsBadRecordCause(t *testing.T) {
	env, xs := testEnv(t, 2000, workload.Uniform, 13)
	if err := env.FS.WriteFile("/data", poisonedData(xs, 1)); err != nil {
		t.Fatal(err)
	}
	_, _, err := RunExactJob(env, jobs.Mean(), "/data", 0)
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("exact pass over a NaN record: %v", err)
	}
}

// BenchmarkExactFallback times one exact fall-back — the column scan a
// one-shot takes — over 1 M records whose one decoded block is
// resident, as after a sampled run over the file, for the median.
func BenchmarkExactFallback(b *testing.B) {
	env, err := NewEnv(EnvConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Zipf, N: 1_000_000, Seed: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(xs)); err != nil {
		b.Fatal(err)
	}
	makeResident(b, env, "/data", colscan.FormatNumeric, 1)
	job := jobs.Median()
	dec := ScalarDecode(job, nil)
	b.Run("scan", func(b *testing.B) {
		for range b.N {
			if _, err := runExact(env, []jobs.Numeric{job}, "/data", 0, dec, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
