package earl_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/earl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// mustJob resolves a statistic by its spec name.
func mustJob(t *testing.T, name string) earl.Job {
	t.Helper()
	j, err := earl.JobByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// planCluster builds a cluster with uniform values at /data.
func planCluster(t *testing.T, n int, clusterSeed, dataSeed uint64) (*earl.Cluster, []float64) {
	t.Helper()
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: clusterSeed})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: n, Seed: dataSeed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteValues("/data", xs); err != nil {
		t.Fatal(err)
	}
	return cluster, xs
}

// TestPlanSpecEndToEnd walks the public plan surface: a filtered
// derived multi-statistic RunPlan, a grouped RunPlan, and a maintained
// WatchPlan of each shape surviving an append+refresh.
func TestPlanSpecEndToEnd(t *testing.T) {
	cluster, xs := planCluster(t, 60_000, 21, 22)
	opts := earl.Options{Sigma: 0.05, Seed: 23}

	res, err := cluster.RunPlan(earl.PlanSpec{Path: "/data", Filter: "v > 50", Derive: "v * 2", Stats: []string{"mean", "p95"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 || res.Groups != nil {
		t.Fatalf("scalar plan returned %+v", res)
	}
	// Uniform[0,100) above 50, doubled, averages near 150.
	if est := res.Reports[0].Estimate; est < 130 || est > 170 {
		t.Fatalf("filtered derived mean %.3f does not look like 2·(v|v>50)", est)
	}

	grouped := earl.PlanSpec{Path: "/data", GroupBy: "floor(v / 50)", Stats: []string{"mean"}}
	gres, err := cluster.RunPlan(grouped, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Groups == nil || len(gres.Groups.Groups) != 2 {
		t.Fatalf("grouped plan returned %+v", gres)
	}

	w, err := cluster.WatchPlan(earl.PlanSpec{Path: "/data", Filter: "v > 50", Stats: []string{"mean"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Grouped() {
		t.Fatal("scalar plan watch reports grouped")
	}
	if err := cluster.AppendValues("/data", xs[:10_000]); err != nil {
		t.Fatal(err)
	}
	wres, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if w.Refreshes() != 1 || len(wres.Reports) != 1 {
		t.Fatalf("plan watch after one append: refreshes=%d result=%+v", w.Refreshes(), wres)
	}

	gw, err := cluster.WatchPlan(grouped, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if !gw.Grouped() {
		t.Fatal("grouped plan watch reports scalar")
	}
	if err := cluster.AppendValues("/data", xs[:10_000]); err != nil {
		t.Fatal(err)
	}
	gwres, err := gw.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if gwres.Groups == nil || len(gwres.Groups.Groups) != 2 {
		t.Fatalf("grouped plan watch refresh returned %+v", gwres)
	}
}

// TestDegeneratePlanMatchesLegacy pins the wrapper contract: a plan
// with no filter, no derive and no (or "key") group-by takes the
// historical code paths and reproduces Run/RunMulti/RunGrouped bit for
// bit, at every parallelism.
func TestDegeneratePlanMatchesLegacy(t *testing.T) {
	for _, par := range []int{1, 4, 0} {
		cluster, _ := planCluster(t, 60_000, 31, 32)
		opts := earl.Options{Sigma: 0.05, Seed: 33, Parallelism: par}

		jset := []earl.Job{earl.Mean(), mustJob(t, "p95")}
		want, err := cluster.RunMulti(jset, "/data", opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.RunPlan(earl.PlanSpec{Path: "/data", Stats: []string{"mean", "p95"}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got.Reports) {
			t.Errorf("par=%d: degenerate plan differs from RunMulti:\n%+v\n%+v", par, want, got.Reports)
		}

		kv, err := workload.KVSpec{Keys: 4, N: 60_000, Seed: 34}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.WriteFile("/kv", workload.EncodeStrings(kv)); err != nil {
			t.Fatal(err)
		}
		gwant, err := cluster.RunGrouped(earl.Mean(), earl.TabKV, "/kv", opts)
		if err != nil {
			t.Fatal(err)
		}
		ggot, err := cluster.RunPlan(earl.PlanSpec{Path: "/kv", GroupBy: "key", Stats: []string{"mean"}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gwant, *ggot.Groups) {
			t.Errorf("par=%d: degenerate grouped plan differs from RunGrouped:\n%+v\n%+v", par, gwant, *ggot.Groups)
		}
	}
}

// TestPlanMatchesManualPrefilter is the pushdown golden: under the
// post-map sampler over one-split files (so one mapper) and a forced
// plan (no SSABE), a filter+derive plan over raw data must produce the
// same sample — and hence bit-identical p-invariant statistics — as
// manually filtering and deriving the data up front and running the
// legacy engine on the result. The data uses exact quarter values and
// an exact affine derive, so transformed records round-trip the
// fixed-width encoding bit for bit. FractionP and EstTotalN are
// excluded: the plan denominates them in the ESTIMATED effective
// subpopulation, the manual run in the prefiltered file's own estimate.
func TestPlanMatchesManualPrefilter(t *testing.T) {
	const n = 50_000
	raw := make([]float64, n)
	pre := make([]float64, 0, n)
	for k := range raw {
		v := float64(k%200) / 4 // 0, 0.25, …, 49.75: exact in the line format
		raw[k] = v
		if v < 25 {
			pre = append(pre, v*2+1) // derive, exact in float64
		}
	}
	jset := []earl.Job{earl.Mean(), mustJob(t, "p50"), mustJob(t, "p95")}

	for _, par := range []int{1, 4, 0} {
		opts := earl.Options{
			Sigma:       0.2,
			Sampler:     earl.PostMapSampling,
			Seed:        41,
			ForceB:      64,
			ForceN:      400,
			Parallelism: par,
		}
		cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 2 << 20, Seed: 40})
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.WriteValues("/raw", raw); err != nil {
			t.Fatal(err)
		}
		if err := cluster.WriteValues("/pre", pre); err != nil {
			t.Fatal(err)
		}

		want, err := cluster.RunMulti(jset, "/pre", opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.RunPlan(earl.PlanSpec{
			Path:   "/raw",
			Filter: "v < 25",
			Derive: "v * 2 + 1",
			Stats:  []string{"mean", "p50", "p95"},
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Reports) != len(want) {
			t.Fatalf("par=%d: %d plan reports vs %d manual", par, len(got.Reports), len(want))
		}
		for i, w := range want {
			g := got.Reports[i]
			// Blank out the population-denominated fields before comparing.
			w.FractionP, g.FractionP = 0, 0
			w.EstTotalN, g.EstTotalN = 0, 0
			if !reflect.DeepEqual(w, g) {
				t.Errorf("par=%d %s: pushdown differs from manual prefilter:\nmanual: %+v\nplan:   %+v",
					par, w.Job, w, g)
			}
		}
	}
}

// TestPlanSpecValidationAtPublicSurface: malformed or mistyped
// expressions fail Run with positioned errors before any engine work.
func TestPlanSpecValidationAtPublicSurface(t *testing.T) {
	cluster, _ := planCluster(t, 4_000, 51, 52)
	for _, spec := range []earl.PlanSpec{
		{Path: "/data", Filter: "v +"},
		{Path: "/data", Filter: "v + 1"},                                // filter must be boolean
		{Path: "/data", Derive: "v > 1"},                                // derive must be numeric
		{Path: "/data", Filter: "nope(v)"},                              // unknown function
		{Path: "/data", GroupBy: "key", Stats: []string{"mean", "p95"}}, // grouped multi-stat
		{},
	} {
		if _, err := cluster.RunPlan(spec, earl.Options{}); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if _, err := cluster.RunPlan(earl.PlanSpec{Path: "/data", Filter: "v +"}, earl.Options{}); err == nil ||
		!strings.Contains(err.Error(), "column") {
		t.Errorf("malformed expression error lacks a position: %v", err)
	}
}

// TestFilteredConfidenceIntervalCalibration is the statistical
// acceptance test for filtered-subpopulation semantics: with SSABE
// pilots running post-filter, the reported 95% CI must cover the TRUE
// statistic of the filtered subpopulation in ≥90% of seeded runs, per
// statistic. Truth is computed over records passing the filter, not
// the raw population — a plan that sized or corrected against raw N
// would systematically miss it.
func TestFilteredConfidenceIntervalCalibration(t *testing.T) {
	const (
		seedsPerJob = 70
		records     = 20_000
		minCoverage = 0.90
		filterExpr  = "v > 30"
	)
	sub := func(xs []float64) []float64 {
		kept := make([]float64, 0, len(xs))
		for _, v := range xs {
			if v > 30 {
				kept = append(kept, v)
			}
		}
		return kept
	}
	cases := []struct {
		name  string
		truth func(kept []float64) float64
	}{
		{"mean", func(kept []float64) float64 { m, _ := stats.Mean(kept); return m }},
		{"sum", stats.Sum},
		{"p50", func(kept []float64) float64 { q, _ := stats.Quantile(kept, 0.5); return q }},
	}

	for _, cj := range cases {
		cj := cj
		t.Run(cj.name, func(t *testing.T) {
			t.Parallel()
			var covered, sampledRuns atomic.Int64
			var mu sync.Mutex
			var firstErr error
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			var wg sync.WaitGroup
			sem := make(chan struct{}, 8)
			for seed := 0; seed < seedsPerJob; seed++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(seed uint64) {
					defer wg.Done()
					defer func() { <-sem }()
					cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 13, Seed: seed})
					if err != nil {
						fail(err)
						return
					}
					xs, err := workload.NumericSpec{Dist: workload.Uniform, N: records, Seed: 1000 + seed}.Generate()
					if err != nil {
						fail(err)
						return
					}
					if err := cluster.WriteValues("/data", xs); err != nil {
						fail(err)
						return
					}
					res, err := cluster.RunPlan(earl.PlanSpec{Path: "/data", Filter: filterExpr, Stats: []string{cj.name}}, earl.Options{
						Sigma:  0.05,
						Seed:   2000 + seed,
						ForceB: 150,
						ForceN: 800,
					})
					if err != nil {
						fail(err)
						return
					}
					rep := res.Reports[0]
					if rep.UsedFull {
						return // no interval to calibrate
					}
					sampledRuns.Add(1)
					truth := cj.truth(sub(xs))
					if math.IsNaN(truth) {
						fail(errors.New("degenerate filtered truth"))
						return
					}
					if rep.CILo <= truth && truth <= rep.CIHi {
						covered.Add(1)
					}
				}(uint64(seed))
			}
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			runs := sampledRuns.Load()
			if runs < seedsPerJob*9/10 {
				t.Fatalf("only %d of %d runs took the sampled path", runs, seedsPerJob)
			}
			coverage := float64(covered.Load()) / float64(runs)
			t.Logf("%s over %s: 95%% CI covered subpopulation truth in %d/%d runs (%.1f%%)",
				cj.name, filterExpr, covered.Load(), runs, 100*coverage)
			if coverage < minCoverage {
				t.Fatalf("%s: coverage %.1f%% < %.0f%% — filtered-subpopulation CI is miscalibrated",
					cj.name, 100*coverage, 100*minCoverage)
			}
		})
	}
}
