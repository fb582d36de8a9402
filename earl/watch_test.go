package earl_test

import (
	"fmt"
	"math"
	"testing"

	"repro/earl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestPublicWatchAppendRefresh drives the continuous-ingest surface
// through the public API: Watch, Append, Refresh, Close.
func TestPublicWatchAppendRefresh(t *testing.T) {
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	base, err := workload.NumericSpec{Dist: workload.Uniform, N: 120_000, Seed: 82}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteValues("/stream", base); err != nil {
		t.Fatal(err)
	}
	w, err := cluster.Watch(earl.Mean(), "/stream", earl.Options{Sigma: 0.05, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if first := w.Result().Reports[0]; first.UsedFull {
		t.Fatalf("watch fell back to exact: %+v", first)
	}

	delta, err := workload.NumericSpec{Dist: workload.Uniform, N: 40_000, Seed: 84}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AppendValues("/stream", delta); err != nil {
		t.Fatal(err)
	}
	before := cluster.Metrics()
	res, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[0]
	cost := cluster.Metrics().Sub(before)
	if cost.Refreshes != 1 || w.Refreshes() != 1 {
		t.Fatalf("refresh accounting: metrics %d, handle %d", cost.Refreshes, w.Refreshes())
	}
	if cost.JobStartups != 0 {
		t.Fatalf("a refresh must not submit a new MR job (startup overhead): %+v", cost)
	}
	all := append(append([]float64(nil), base...), delta...)
	truth, _ := stats.Mean(all)
	if rel := math.Abs(rep.Estimate-truth) / truth; rel > 0.1 {
		t.Fatalf("refreshed estimate %v vs truth %v", rep.Estimate, truth)
	}
	if rep.SampleSize != w.SampleSize() {
		t.Fatalf("sample size mismatch: %d vs %d", rep.SampleSize, w.SampleSize())
	}
	// o(N): far fewer records touched than the concatenated file holds.
	if cost.RecordsRead > int64(len(all))/20 {
		t.Fatalf("refresh read %d records of %d", cost.RecordsRead, len(all))
	}
}

// TestPublicWatchGrouped drives the grouped variant end to end.
func TestPublicWatchGrouped(t *testing.T) {
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	enc := func(key string, n int, seed uint64, shift float64) []byte {
		xs, err := workload.NumericSpec{Dist: workload.Uniform, N: n, Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, x := range xs {
			buf = append(buf, []byte(fmt.Sprintf("%s\t%012.6f\n", key, x+shift))...)
		}
		return buf
	}
	data := append(enc("us", 25_000, 92, 0), enc("eu", 25_000, 93, 50)...)
	if err := cluster.WriteFile("/kv", data); err != nil {
		t.Fatal(err)
	}
	w, err := cluster.WatchGrouped(earl.Mean(), earl.TabKV, "/kv", earl.Options{Sigma: 0.08, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := len(w.Result().Groups.Groups); got != 2 {
		t.Fatalf("initial groups = %d", got)
	}
	if err := cluster.Append("/kv", enc("apac", 25_000, 95, 100)); err != nil {
		t.Fatal(err)
	}
	res, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Groups
	if got := len(rep.Groups); got != 3 {
		t.Fatalf("groups after refresh = %d (%v)", got, rep.Groups)
	}
	if est := rep.Groups["apac"].Estimate; est < 100 || est > 200 {
		t.Fatalf("apac estimate %v implausible (uniform(0,100)+100)", est)
	}
}
