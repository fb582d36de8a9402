package live_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
)

func newEnv(t testing.TB, seed uint64) *core.Env {
	t.Helper()
	env, err := core.NewEnv(core.EnvConfig{
		DataNodes:   5,
		BlockSize:   1 << 14,
		Replication: 2,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func genValues(t testing.TB, n int, seed uint64) []float64 {
	t.Helper()
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: n, Seed: seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return xs
}

// TestWatchAppendRefreshCheaperThanRerun is the tentpole acceptance
// criterion: a Watch + Append + Refresh cycle reads only o(N) new
// records — far fewer than a from-scratch run over the concatenated
// data — while landing within the σ bound of that from-scratch answer.
func TestWatchAppendRefreshCheaperThanRerun(t *testing.T) {
	const sigma = 0.05
	env := newEnv(t, 1)
	base := genValues(t, 150_000, 2)
	delta := genValues(t, 50_000, 3)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{Sigma: sigma, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	first := q.Report()
	if first.UsedFull {
		t.Fatalf("watch fell back to exact: %+v", first)
	}

	if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	before := env.Metrics.Snapshot()
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	if cost.Refreshes != 1 {
		t.Fatalf("Refreshes counter = %d", cost.Refreshes)
	}

	// From-scratch run over the concatenated data, on a fresh cluster.
	scratchEnv := newEnv(t, 1)
	all := append(append([]float64(nil), base...), delta...)
	if err := scratchEnv.FS.WriteFile("/data", workload.EncodeLinesFixed(all)); err != nil {
		t.Fatal(err)
	}
	scratchBefore := scratchEnv.Metrics.Snapshot()
	scratch, err := core.Run(scratchEnv, jobs.Mean(), "/data", core.Options{Sigma: sigma, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	scratchCost := scratchEnv.Metrics.Snapshot().Sub(scratchBefore)

	// o(N): the refresh touches a fraction of what even the (sampled!)
	// from-scratch run reads, and a sliver of the appended region.
	if cost.RecordsRead*4 > scratchCost.RecordsRead {
		t.Fatalf("refresh read %d records vs %d for a from-scratch run — not o(N)",
			cost.RecordsRead, scratchCost.RecordsRead)
	}
	if cost.RecordsRead > int64(len(delta))/10 {
		t.Fatalf("refresh read %d records of a %d-record delta", cost.RecordsRead, len(delta))
	}
	if cost.BytesRead > scratchCost.BytesRead {
		t.Fatalf("refresh bytes %d exceed from-scratch bytes %d", cost.BytesRead, scratchCost.BytesRead)
	}

	// Accuracy: both answers carry cv ≤ σ, so they must agree within the
	// bound (and with the exact truth).
	truth, _ := stats.Mean(all)
	if rel := math.Abs(rep.Estimate-scratch.Estimate) / scratch.Estimate; rel > 2*sigma {
		t.Fatalf("refresh %v vs from-scratch %v (rel %v)", rep.Estimate, scratch.Estimate, rel)
	}
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 2*sigma {
		t.Fatalf("refresh %v vs truth %v (rel %v)", rep.Estimate, truth, rel)
	}
	if rep.EstTotalN < int64(0.8*float64(len(all))) || rep.EstTotalN > int64(1.2*float64(len(all))) {
		t.Fatalf("EstTotalN %d far from true N %d", rep.EstTotalN, len(all))
	}
}

// TestRefreshDeterministicAcrossParallelism is the tentpole
// reproducibility criterion: the whole Watch → Append → Refresh cycle is
// bit-identical for a fixed seed at any Parallelism.
func TestRefreshDeterministicAcrossParallelism(t *testing.T) {
	base := genValues(t, 60_000, 7)
	delta := genValues(t, 20_000, 8)
	var reports []core.Report
	for _, par := range []int{1, 4, 0} {
		env := newEnv(t, 5)
		if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
			t.Fatal(err)
		}
		q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{
			Sigma: 0.05, Seed: 6, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
			t.Fatal(err)
		}
		rep, err := q.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		q.Close()
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("refresh reports differ across parallelism:\n  p=1: %+v\n  other: %+v",
				reports[0], reports[i])
		}
	}
}

// TestRefreshNoAppendIsNoop: refreshing an unchanged file returns the
// same report and reads nothing.
func TestRefreshNoAppendIsNoop(t *testing.T) {
	env := newEnv(t, 11)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(genValues(t, 80_000, 12))); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{Sigma: 0.05, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	first := q.Report()
	before := env.Metrics.Snapshot()
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	if cost.RecordsRead != 0 || cost.BytesRead != 0 {
		t.Fatalf("no-op refresh still read data: %+v", cost)
	}
	if rep.Estimate != first.Estimate || rep.SampleSize != first.SampleSize {
		t.Fatalf("no-op refresh changed the answer: %+v vs %+v", rep, first)
	}
}

// TestRefreshReExpandsOnSigmaViolation: appending data from a much wider
// distribution raises the error estimate; the refresh must notice and
// expand the sample rather than report a stale σ claim.
func TestRefreshReExpandsOnSigmaViolation(t *testing.T) {
	env := newEnv(t, 21)
	base := genValues(t, 100_000, 22)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{Sigma: 0.05, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	n0 := q.SampleSize()

	wide, err := workload.NumericSpec{Dist: workload.Pareto, N: 100_000, Seed: 24}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wide {
		wide[i] *= 1000 // heavy tail, three orders of magnitude out
	}
	if err := env.FS.Append("/data", workload.EncodeLinesFixed(wide)); err != nil {
		t.Fatal(err)
	}
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if q.SampleSize() <= n0 {
		t.Fatalf("sample did not grow under a distribution shift: %d -> %d", n0, q.SampleSize())
	}
	truth, _ := stats.Mean(append(append([]float64(nil), base...), wide...))
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.5 {
		t.Fatalf("estimate %v lost the shifted truth %v entirely", rep.Estimate, truth)
	}
}

// TestRefreshStopsAtTheExpansionCap: under an unreachable σ a refresh
// re-expands the maintained sample only up to the cap a run stops at —
// MaxSampleShare of the file's estimated records — and returns with its
// achieved accuracy instead of drawing the whole file.
func TestRefreshStopsAtTheExpansionCap(t *testing.T) {
	env := newEnv(t, 35)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(genValues(t, 20_000, 36))); err != nil {
		t.Fatal(err)
	}
	// A forced plan keeps the watch sampled: SSABE would send σ = 1e-9
	// to the exact path.
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{
		Sigma: 1e-9, Seed: 37, ForceB: 20, ForceN: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := env.FS.Append("/data", workload.EncodeLinesFixed(genValues(t, 10_000, 38))); err != nil {
		t.Fatal(err)
	}
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged || rep.UsedFull {
		t.Fatalf("σ = 1e-9 cannot converge on a sample: %+v", rep)
	}
	limit := int(core.MaxSampleShare * float64(rep.EstTotalN))
	if rep.SampleSize > limit || rep.SampleSize <= limit/2 {
		t.Fatalf("refresh holds %d records, want up to the cap %d of %d estimated",
			rep.SampleSize, limit, rep.EstTotalN)
	}
}

// TestWatchExactFallbackMaintained: a tiny file takes the exact path;
// refreshes keep the answer exact by folding in only appended records.
func TestWatchExactFallbackMaintained(t *testing.T) {
	env := newEnv(t, 31)
	base := genValues(t, 300, 32)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{Sigma: 0.05, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if !q.Report().UsedFull {
		t.Fatalf("tiny data should use the exact path: %+v", q.Report())
	}
	delta := genValues(t, 200, 34)
	if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	before := env.Metrics.Snapshot()
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	all := append(append([]float64(nil), base...), delta...)
	truth, _ := stats.Mean(all)
	if math.Abs(rep.Estimate-truth) > 1e-6*math.Abs(truth) {
		t.Fatalf("exact maintained estimate %v != truth %v", rep.Estimate, truth)
	}
	if rep.SampleSize != len(all) {
		t.Fatalf("exact maintained over %d records, want %d", rep.SampleSize, len(all))
	}
	// Only the appended records were read.
	if cost.RecordsRead != int64(len(delta)) {
		t.Fatalf("exact refresh read %d records, want %d", cost.RecordsRead, len(delta))
	}
}

// TestExactWatchOpensOverNoSurvivor: a plan watch whose filter keeps no
// record of the opening file takes the exact path with nothing to fold,
// and reports 0 over 0 records; after an append with survivors it
// reports, bit for bit, each reducer's fold of exactly those — for a
// moment statistic and an order statistic alike.
func TestExactWatchOpensOverNoSurvivor(t *testing.T) {
	env := newEnv(t, 81)
	if err := env.FS.WriteFile("/w", workload.EncodeLinesFixed(genValues(t, 300, 82))); err != nil {
		t.Fatal(err)
	}
	pq, err := core.PreparePlan(plan.Spec{Path: "/w", Stats: []string{"mean", "median"}, Filter: "v > 1000"},
		core.Options{Sigma: 0.05, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	w, err := live.Open(env, pq)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rep := range w.Result().Reports {
		if !rep.UsedFull || rep.Estimate != 0 || rep.SampleSize != 0 {
			t.Fatalf("%s opened over no survivor: %+v, want an exact 0 over 0 records", rep.Job, rep)
		}
	}
	survivors := []float64{1500.25, 2000.5, 1200.125}
	if err := env.FS.Append("/w", workload.EncodeLinesFixed(append([]float64{50}, survivors...))); err != nil {
		t.Fatal(err)
	}
	res, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range pq.Jobs {
		st, err := job.Reducer.Initialize(job.Name)
		if err == nil {
			st, err = job.Reducer.Update(st, survivors)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := job.Reducer.Finalize(st)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Reports[i]
		if math.Float64bits(rep.Estimate) != math.Float64bits(want) || rep.SampleSize != len(survivors) {
			t.Fatalf("%s after the append: %v over %d records, want %v over %d", job.Name, rep.Estimate, rep.SampleSize, want, len(survivors))
		}
	}
}

// TestRefreshPostMapSampler: the maintained query works with the
// Algorithm 1 sampler too; a refresh scans only the appended region.
func TestRefreshPostMapSampler(t *testing.T) {
	env := newEnv(t, 41)
	base := genValues(t, 60_000, 42)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", core.Options{
		Sigma: 0.05, Seed: 43, Sampler: core.PostMapSampling,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	delta := genValues(t, 20_000, 44)
	if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	before := env.Metrics.Snapshot()
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	// Post-map pools every record it covers — but only of the delta.
	if cost.RecordsRead < int64(len(delta)) || cost.RecordsRead > int64(len(delta))+int64(len(delta))/4 {
		t.Fatalf("post-map refresh read %d records, want ≈%d (the delta only)", cost.RecordsRead, len(delta))
	}
	all := append(append([]float64(nil), base...), delta...)
	truth, _ := stats.Mean(all)
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.1 {
		t.Fatalf("post-map refresh %v vs truth %v", rep.Estimate, truth)
	}
}

// TestRefreshAfterRewriteAndClose: a rewrite of the watched path makes
// the next Refresh rebuild from scratch — the report is bit-identical
// to a fresh watch opened over the rewritten contents — and a closed
// query refuses further refreshes.
func TestRefreshAfterRewriteAndClose(t *testing.T) {
	opts := core.Options{Sigma: 0.05, Seed: 53}
	env := newEnv(t, 51)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(genValues(t, 50_000, 52))); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, []jobs.Numeric{jobs.Mean()}, "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the file behind the handle's back.
	rewritten := workload.EncodeLinesFixed(genValues(t, 30_000, 54))
	if err := env.FS.WriteFile("/data", rewritten); err != nil {
		t.Fatal(err)
	}
	rep, err := q.Refresh()
	if err != nil {
		t.Fatalf("refresh after rewrite: %v", err)
	}
	// A fresh watch over the same (rewritten) file with the same options
	// must report exactly the same answer.
	env2 := newEnv(t, 51)
	if err := env2.FS.WriteFile("/data", rewritten); err != nil {
		t.Fatal(err)
	}
	q2, err := live.WatchMulti(env2, []jobs.Numeric{jobs.Mean()}, "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := q2.Report()
	if rep.Estimate != fresh.Estimate || rep.CILo != fresh.CILo || rep.CIHi != fresh.CIHi ||
		rep.SampleSize != fresh.SampleSize || rep.CV != fresh.CV {
		t.Fatalf("rebuilt report differs from a fresh watch:\n got %+v\nwant %+v", rep, fresh)
	}
	q2.Close()
	q.Close()
	if _, err := q.Refresh(); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("closed query should refuse: %v", err)
	}
}

// TestWatchGroupedRefresh: per-key maintained queries, including a key
// that only exists in the appended data.
func TestWatchGroupedRefresh(t *testing.T) {
	env := newEnv(t, 61)
	enc := func(keys []string, per int, seed uint64, shift float64) []byte {
		var buf []byte
		xs := genValues(t, per*len(keys), seed)
		i := 0
		for _, k := range keys {
			for j := 0; j < per; j++ {
				buf = append(buf, []byte(fmt.Sprintf("%s\t%012.6f\n", k, xs[i]+shift))...)
				i++
			}
		}
		return buf
	}
	if err := env.FS.WriteFile("/kv", enc([]string{"a", "b"}, 30_000, 62, 0)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchGrouped(env, jobs.Mean(), core.TabRoute(), "/kv", core.Options{Sigma: 0.08, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	first := q.Report()
	if len(first.Groups) != 2 {
		t.Fatalf("initial groups: %v", first.Groups)
	}
	// Append more of "b" plus a brand-new key "c".
	if err := env.FS.Append("/kv", enc([]string{"b", "c"}, 30_000, 64, 200)); err != nil {
		t.Fatal(err)
	}
	before := env.Metrics.Snapshot()
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	if len(rep.Groups) != 3 {
		t.Fatalf("appended key missing: %v", rep.Groups)
	}
	if rep.Groups["c"].SampleSize == 0 {
		t.Fatalf("new group never sampled: %+v", rep.Groups["c"])
	}
	// "c" values are uniform(0,100)+200 → mean ≈ 250.
	if got := rep.Groups["c"].Estimate; got < 200 || got > 300 {
		t.Fatalf("new group estimate %v implausible", got)
	}
	// Refresh cost stays delta-proportional.
	if cost.RecordsRead > 60_000/4 {
		t.Fatalf("grouped refresh read %d records of a 60000-record delta", cost.RecordsRead)
	}
}

// TestWatchGroupedConcurrentAppendRace hammers one grouped maintained
// query with concurrent Appends, Refreshes and Report/SampleSize reads
// (run under -race in CI): the handle's serialisation plus the DFS's
// ordering must keep every refresh consistent, and the final refresh
// must cover everything appended.
func TestWatchGroupedConcurrentAppendRace(t *testing.T) {
	env := newEnv(t, 71)
	enc := func(keys []string, per int, seed uint64, shift float64) []byte {
		var buf []byte
		xs := genValues(t, per*len(keys), seed)
		i := 0
		for _, k := range keys {
			for j := 0; j < per; j++ {
				buf = append(buf, []byte(fmt.Sprintf("%s\t%012.6f\n", k, xs[i]+shift))...)
				i++
			}
		}
		return buf
	}
	if err := env.FS.WriteFile("/kv", enc([]string{"a", "b"}, 20_000, 72, 0)); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchGrouped(env, jobs.Mean(), core.TabRoute(), "/kv", core.Options{Sigma: 0.1, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const appends = 6
	var wg sync.WaitGroup
	errs := make(chan error, appends+8)
	// Appender: grows existing keys and introduces new ones mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			keys := []string{"b"}
			if i%2 == 1 {
				keys = []string{"c", "d"}
			}
			if err := env.FS.Append("/kv", enc(keys, 4_000, 74+uint64(i), float64(50*i))); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Concurrent refreshers and readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := q.Refresh(); err != nil {
					errs <- err
					return
				}
				_ = q.Report()
				_ = q.SampleSize()
				_ = q.Refreshes()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One final refresh observes every appended byte.
	rep, err := q.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 4 {
		t.Fatalf("groups after concurrent appends = %v", rep.SortedGroupKeys())
	}
	for _, k := range []string{"c", "d"} {
		if rep.Groups[k].SampleSize == 0 {
			t.Fatalf("mid-flight key %q never sampled: %+v", k, rep.Groups[k])
		}
	}
}

// TestWatchMultiRefreshSharedSample: a multi-statistic watch refreshes
// every statistic from one delta scan — the refresh cost does not scale
// with the number of statistics, and the per-statistic answers track
// their exact counterparts.
func TestWatchMultiRefreshSharedSample(t *testing.T) {
	env := newEnv(t, 81)
	base := genValues(t, 100_000, 82)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
		t.Fatal(err)
	}
	p95, err := jobs.Quantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	jset := []jobs.Numeric{jobs.Mean(), p95, jobs.Count()}
	q, err := live.WatchMulti(env, jset, "/data", core.Options{Sigma: 0.05, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := len(q.Reports()); got != 3 {
		t.Fatalf("initial reports = %d", got)
	}

	delta := genValues(t, 30_000, 84)
	if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	before := env.Metrics.Snapshot()
	reps, err := q.RefreshAll()
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	if cost.Refreshes != 1 {
		t.Fatalf("multi-stat refresh counted %d refreshes", cost.Refreshes)
	}
	// o(N), shared: one delta scan for all three statistics.
	if cost.RecordsRead > int64(len(delta))/4 {
		t.Fatalf("multi-stat refresh read %d records of a %d-record delta", cost.RecordsRead, len(delta))
	}
	all := append(append([]float64(nil), base...), delta...)
	truthMean, _ := stats.Mean(all)
	truthP95, _ := stats.Quantile(all, 0.95)
	if rel := math.Abs(reps[0].Estimate-truthMean) / truthMean; rel > 0.1 {
		t.Fatalf("mean %v vs truth %v", reps[0].Estimate, truthMean)
	}
	if rel := math.Abs(reps[1].Estimate-truthP95) / truthP95; rel > 0.1 {
		t.Fatalf("p95 %v vs truth %v", reps[1].Estimate, truthP95)
	}
	if rel := math.Abs(reps[2].Estimate-float64(len(all))) / float64(len(all)); rel > 0.2 {
		t.Fatalf("count %v vs truth %d", reps[2].Estimate, len(all))
	}
	for _, rep := range reps {
		if rep.SampleSize != reps[0].SampleSize {
			t.Fatalf("statistics diverged in maintained sample size")
		}
	}
}

// TestCustomParserWatchMatchesBuiltinFormat pins the maintained side of
// "nothing behind the samplers can tell how a record was decoded": a
// watch opened through a custom parser (a job with its ScanFormat
// stripped; Route{Parse: TabKV}), then appended to and refreshed, reports
// exactly what the built-in format's watch does — initial answer and
// refreshed answer, scalar/multi and grouped, under both samplers, at
// any Parallelism.
func TestCustomParserWatchMatchesBuiltinFormat(t *testing.T) {
	kv := func(xs []float64) []byte {
		var buf []byte
		for i, x := range xs {
			buf = append(buf, fmt.Sprintf("%s\t%012.6f\n", []string{"api", "db", "web"}[i%3], x)...)
		}
		return buf
	}
	type result struct {
		first, refreshed   []core.Report
		gFirst, gRefreshed core.GroupedReport
	}
	for _, sampler := range []core.SamplerKind{core.PreMapSampling, core.PostMapSampling} {
		for _, par := range []int{1, 4} {
			run := func(custom bool) result {
				env := newEnv(t, 81)
				base, delta := genValues(t, 60_000, 82), genValues(t, 20_000, 83)
				if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(base)); err != nil {
					t.Fatal(err)
				}
				if err := env.FS.WriteFile("/kv", kv(base)); err != nil {
					t.Fatal(err)
				}
				jset := []jobs.Numeric{jobs.Mean(), jobs.Median()}
				route := core.TabRoute()
				if custom {
					for i := range jset {
						jset[i].ScanFormat = colscan.FormatNone
					}
					route = core.Route{Parse: core.TabKV}
				}
				opts := core.Options{Sigma: 0.03, Seed: 84, Sampler: sampler, Parallelism: par}
				q, err := live.WatchMulti(env, jset, "/data", opts)
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				gq, err := live.WatchGrouped(env, jobs.Mean(), route, "/kv", opts)
				if err != nil {
					t.Fatal(err)
				}
				defer gq.Close()
				res := result{first: q.Reports(), gFirst: gq.Report()}
				if res.first[0].UsedFull {
					t.Fatalf("want a sampled watch, got %+v", res.first[0])
				}
				if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
					t.Fatal(err)
				}
				if err := env.FS.Append("/kv", kv(delta)); err != nil {
					t.Fatal(err)
				}
				if res.refreshed, err = q.RefreshAll(); err != nil {
					t.Fatal(err)
				}
				if res.gRefreshed, err = gq.Refresh(); err != nil {
					t.Fatal(err)
				}
				if res.refreshed[0].SampleSize <= res.first[0].SampleSize {
					t.Fatalf("refresh folded nothing: %d → %d records", res.first[0].SampleSize, res.refreshed[0].SampleSize)
				}
				return res
			}
			if builtin, custom := run(false), run(true); !reflect.DeepEqual(builtin, custom) {
				t.Fatalf("%s par=%d: custom-parser watch diverged:\n%+v\n%+v", sampler, par, builtin, custom)
			}
		}
	}
}

// TestExactWatchRewrittenLargeThenRefreshed: a watch that opens on the
// exact fall-back (tiny file) and is rebuilt sampled by a rewrite still
// knows how to decode data appended after that — under both samplers,
// and through a custom parser exactly as through the built-in format.
func TestExactWatchRewrittenLargeThenRefreshed(t *testing.T) {
	tiny, big, delta := genValues(t, 50, 95), genValues(t, 80_000, 92), genValues(t, 20_000, 93)
	truth, _ := stats.Mean(append(append([]float64(nil), big...), delta...))
	for _, sampler := range []core.SamplerKind{core.PreMapSampling, core.PostMapSampling} {
		run := func(custom bool) []core.Report {
			jset := []jobs.Numeric{jobs.Mean(), jobs.Median()}
			if custom {
				for i := range jset {
					jset[i].ScanFormat = colscan.FormatNone
				}
			}
			env := newEnv(t, 91)
			if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(tiny)); err != nil {
				t.Fatal(err)
			}
			q, err := live.WatchMulti(env, jset, "/data", core.Options{Sigma: 0.03, Seed: 94, Sampler: sampler})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			if !q.Report().UsedFull {
				t.Fatalf("tiny data should use the exact path: %+v", q.Report())
			}
			if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(big)); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := q.RefreshAll()
			if err != nil {
				t.Fatalf("refresh after rewrite: %v", err)
			}
			if rebuilt[0].UsedFull {
				t.Fatalf("want a sampled watch over the rewritten file, got %+v", rebuilt[0])
			}
			if err := env.FS.Append("/data", workload.EncodeLinesFixed(delta)); err != nil {
				t.Fatal(err)
			}
			reps, err := q.RefreshAll()
			if err != nil {
				t.Fatalf("%s custom=%v: refresh after rewrite + append: %v", sampler, custom, err)
			}
			if reps[0].SampleSize <= rebuilt[0].SampleSize {
				t.Fatalf("refresh folded nothing: %d → %d records", rebuilt[0].SampleSize, reps[0].SampleSize)
			}
			if rel := math.Abs(reps[0].Estimate-truth) / truth; rel > 0.1 {
				t.Fatalf("refreshed mean %v vs truth %v", reps[0].Estimate, truth)
			}
			return reps
		}
		if builtin, custom := run(false), run(true); !reflect.DeepEqual(builtin, custom) {
			t.Fatalf("%s: custom-parser watch diverged:\n%+v\n%+v", sampler, builtin, custom)
		}
	}
}

// TestSampledWatchRewrittenTinyThenRefreshed: a sampled watch whose file
// is rewritten to fewer than 256 records rebuilds on the tiny-file exact
// path and is maintained there — after two appends that keep the file
// under 256 records it reports, to the bit, what a fresh watch opened
// over the final bytes in a new cluster reports.
func TestSampledWatchRewrittenTinyThenRefreshed(t *testing.T) {
	jset := []jobs.Numeric{jobs.Mean(), jobs.Median()}
	opts := core.Options{Sigma: 0.03, Seed: 104}
	env := newEnv(t, 101)
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(genValues(t, 80_000, 102))); err != nil {
		t.Fatal(err)
	}
	q, err := live.WatchMulti(env, jset, "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.Report().UsedFull {
		t.Fatalf("want a sampled watch over 80 000 records, got %+v", q.Report())
	}
	final := workload.EncodeLinesFixed(genValues(t, 120, 103))
	if err := env.FS.WriteFile("/data", final); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := q.RefreshAll()
	if err != nil {
		t.Fatalf("refresh after rewrite: %v", err)
	}
	if !rebuilt[0].UsedFull {
		t.Fatalf("a 120-record file should rebuild exact: %+v", rebuilt[0])
	}
	for i, n := range []int{70, 50} {
		delta := workload.EncodeLinesFixed(genValues(t, n, 105+uint64(i)))
		if err := env.FS.Append("/data", delta); err != nil {
			t.Fatal(err)
		}
		if _, err := q.RefreshAll(); err != nil {
			t.Fatalf("refresh after append %d: %v", i+1, err)
		}
		final = append(final, delta...)
	}

	fresh := newEnv(t, 101)
	if err := fresh.FS.WriteFile("/data", final); err != nil {
		t.Fatal(err)
	}
	want, err := live.WatchMulti(fresh, jset, "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	if got, exp := fmt.Sprintf("%+v", q.Reports()), fmt.Sprintf("%+v", want.Reports()); got != exp {
		t.Fatalf("maintained after rewrite and appends:\n%s\nfresh watch over the same bytes:\n%s", got, exp)
	}
	if q.SampleSize() != want.SampleSize() || q.SampleSize() != 240 {
		t.Fatalf("maintained over %d records, fresh over %d, the file holds 240", q.SampleSize(), want.SampleSize())
	}
}
