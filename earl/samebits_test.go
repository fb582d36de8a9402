package earl_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/earl"
	"repro/internal/colscan"
	"repro/internal/workload"
)

// update re-records testdata/samebits.txt from the tree under test. It
// exists for the re-pin window (ROADMAP direction 1): a PR that moves a
// fixed-seed golden on purpose re-records the matrix and shows the diff;
// every other PR runs it as recorded.
var update = flag.Bool("update", false, "re-record earl/testdata/samebits.txt")

const sameBitsFile = "testdata/samebits.txt"

// TestSameBitsMatrix is the public-API "same bits, same modelled cost"
// matrix PRs 15–20 each rebuilt by hand: every cell runs the one-shot
// and maintained entry points over one fixed dataset with one fixed seed
// and hashes `%+v` of every report beside the simcost delta of the call
// that produced it. One FNV-64 per row is committed; a row that differs
// fails with its key. Cells at Parallelism 1 and 4 are separate rows that
// must also equal each other.
//
//	{gaussian, zipf, pareto} × {40 k, 200 k} × {pre-map, post-map} ×
//	σ {0.02, 0.05, 0.1} × {built-in format, custom parser} × Parallelism {1, 4}
//
// Rows per cell: run (median), multi (mean, median, p95, count), grouped
// (median by key), and per watch — multi-statistic and grouped — its
// first answer with the append → refresh that follows, then a rewrite →
// rebuild. Built-in cells add two plans under one filter: a one-shot
// (mean, p95, count) and a watch grouped by floor(v / 20), first answer
// and one append → refresh. The 200 k cells are skipped under -short.
func TestSameBitsMatrix(t *testing.T) {
	want := map[string]string{}
	if !*update {
		want = readSameBits(t)
	}
	got := map[string]string{}
	for _, dist := range []workload.Dist{workload.Gaussian, workload.Zipf, workload.Pareto} {
		for _, n := range []int{40_000, 200_000} {
			if n > 40_000 && testing.Short() {
				continue
			}
			data := matrixData(t, dist, n)
			for _, sampler := range []earl.SamplerKind{earl.PreMapSampling, earl.PostMapSampling} {
				for _, sigma := range []float64{0.02, 0.05, 0.1} {
					for _, custom := range []bool{false, true} {
						var rows [2]map[string]string
						for pi, par := range []int{1, 4} {
							rows[pi] = matrixCell(t, data, earl.Options{Sigma: sigma, Seed: 20_22, Sampler: sampler, Parallelism: par}, custom)
							decode := "builtin"
							if custom {
								decode = "custom"
							}
							cell := fmt.Sprintf("%s/%d/%s/s%g/%s", dist, n, sampler, sigma, decode)
							for op, h := range rows[pi] {
								got[fmt.Sprintf("%s/p%d/%s", cell, par, op)] = h
							}
							if pi == 1 {
								for op, h := range rows[0] {
									if rows[1][op] != h {
										t.Errorf("%s/%s: Parallelism 1 and 4 differ", cell, op)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if *update {
		writeSameBits(t, got)
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	differing := 0
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("row %s is not recorded in %s (run with -update)", k, sameBitsFile)
			differing++
		case w != got[k]:
			t.Errorf("row %s differs: recorded %s, got %s", k, w, got[k])
			differing++
		}
	}
	t.Logf("%d rows, %d differing", len(keys), differing)
}

// matrixDataset is one (distribution, size) dataset in both encodings:
// one number per line, and the same numbers under four record keys.
type matrixDataset struct {
	base, delta, rewrite       []byte
	kvBase, kvDelta, kvRewrite []byte
}

func matrixData(t *testing.T, dist workload.Dist, n int) matrixDataset {
	t.Helper()
	gen := func(n int, seed uint64) ([]byte, []byte) {
		xs, err := workload.NumericSpec{Dist: dist, N: n, Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 0x5a3e_b175))
		var kv strings.Builder
		kv.Grow(n * 24)
		for _, x := range xs {
			fmt.Fprintf(&kv, "k%d\t%018.9e\n", rng.IntN(4), x)
		}
		return workload.EncodeLinesFixed(xs), []byte(kv.String())
	}
	var d matrixDataset
	d.base, d.kvBase = gen(n, 1)
	d.delta, d.kvDelta = gen(n/10, 2)
	d.rewrite, d.kvRewrite = gen(n/2, 3)
	return d
}

// matrixCell runs every row of one cell on a fresh cluster and returns
// op → hash.
func matrixCell(t *testing.T, d matrixDataset, opts earl.Options, custom bool) map[string]string {
	t.Helper()
	c, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/data", d.base); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/kv", d.kvBase); err != nil {
		t.Fatal(err)
	}
	jset := []earl.Job{earl.Mean(), earl.Median(), mustJob(t, "p95"), earl.Count()}
	median, route := earl.Median(), earl.TabKV
	if custom {
		for i := range jset {
			jset[i].ScanFormat = colscan.FormatNone
		}
		median.ScanFormat = colscan.FormatNone
		route = earl.Route{Parse: colscan.ParseKVString}
	}
	rows := map[string]string{}
	// row hashes what fn reports beside the modelled cost fn added.
	row := func(op string, fn func() (any, error)) {
		t.Helper()
		before := c.Metrics()
		out, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v|%+v", out, c.Metrics().Sub(before))
		rows[op] = fmt.Sprintf("%016x", h.Sum64())
	}

	row("run", func() (any, error) { return c.Run(median, "/data", opts) })
	row("multi", func() (any, error) { return c.RunMulti(jset, "/data", opts) })
	row("grouped", func() (any, error) { return c.RunGrouped(median, route, "/kv", opts) })

	// The rows were recorded when Refresh returned []Report (WatchMulti)
	// and GroupedReport (WatchGrouped) by value; they hash those values.
	var w *earl.Watch
	row("watchmulti.refresh", func() (any, error) {
		var err error
		if w, err = c.WatchMulti(jset, "/data", opts); err != nil {
			return nil, err
		}
		first := w.Result().Reports
		if err := c.Append("/data", d.delta); err != nil {
			return nil, err
		}
		refreshed, err := w.Refresh()
		if err != nil {
			return nil, err
		}
		return [][]earl.Report{first, refreshed.Reports}, nil
	})
	row("watchmulti.rebuild", func() (any, error) {
		if err := c.WriteFile("/data", d.rewrite); err != nil {
			return nil, err
		}
		rebuilt, err := w.Refresh()
		if err != nil {
			return nil, err
		}
		return rebuilt.Reports, nil
	})
	w.Close()

	var gw *earl.Watch
	row("watchgrouped.refresh", func() (any, error) {
		var err error
		if gw, err = c.WatchGrouped(median, route, "/kv", opts); err != nil {
			return nil, err
		}
		first := *gw.Result().Groups
		if err := c.Append("/kv", d.kvDelta); err != nil {
			return nil, err
		}
		refreshed, err := gw.Refresh()
		if err != nil {
			return nil, err
		}
		return []earl.GroupedReport{first, *refreshed.Groups}, nil
	})
	row("watchgrouped.rebuild", func() (any, error) {
		if err := c.WriteFile("/kv", d.kvRewrite); err != nil {
			return nil, err
		}
		rebuilt, err := gw.Refresh()
		if err != nil {
			return nil, err
		}
		return *rebuilt.Groups, nil
	})
	gw.Close()

	// Plans compile to their own built-in format, so only built-in cells
	// run them. The filter keeps a quarter to three quarters of every
	// distribution, so the pilot and the mappers draw through σ in
	// several rounds.
	if custom {
		return rows
	}
	const filter = "v > 2 && v < 60"
	row("plan", func() (any, error) {
		res, err := c.RunPlan(earl.PlanSpec{Path: "/data", Filter: filter, Stats: []string{"mean", "p95", "count"}}, opts)
		if err != nil {
			return nil, err
		}
		return res.Reports, nil
	})
	row("watchplan.refresh", func() (any, error) {
		pw, err := c.WatchPlan(earl.PlanSpec{Path: "/data", Filter: filter, GroupBy: "floor(v / 20)"}, opts)
		if err != nil {
			return nil, err
		}
		defer pw.Close()
		first := *pw.Result().Groups
		if err := c.Append("/data", d.delta); err != nil {
			return nil, err
		}
		refreshed, err := pw.Refresh()
		if err != nil {
			return nil, err
		}
		return []earl.GroupedReport{first, *refreshed.Groups}, nil
	})
	return rows
}

func readSameBits(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(sameBitsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, hash, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(key, "#") {
			rows[key] = hash
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

func writeSameBits(t *testing.T, rows map[string]string) {
	t.Helper()
	if testing.Short() {
		t.Fatal("-update under -short would drop the 200 k rows")
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# row FNV-64a of `%+v` of the reports | the call's simcost delta; re-record with go test ./earl -run TestSameBitsMatrix -update\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, rows[k])
	}
	if err := os.WriteFile(sameBitsFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
