package earl_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/earl"
	"repro/internal/dfs"
	"repro/internal/workload"
)

// TestQueriesNeverTouchTheJournal: read-only means read-only. A sampled
// run rules on its rounds in memory, so no query path
// — scalar, multi-statistic, grouped, planned under either sampler, or a
// watch refresh with nothing appended — commits to the DFS journal; and
// a filesystem that has crashed (and refuses every mutation) still
// answers queries exactly as before.
func TestQueriesNeverTouchTheJournal(t *testing.T) {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 60_000, Seed: 91}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 16, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteValues("/data", xs); err != nil {
		t.Fatal(err)
	}
	var kv strings.Builder
	for i, v := range xs {
		fmt.Fprintf(&kv, "g%d\t%012.6f\n", i%8, v)
	}
	if err := cluster.WriteFile("/kv", []byte(kv.String())); err != nil {
		t.Fatal(err)
	}
	opts := earl.Options{Sigma: 0.02, Seed: 93}
	p50, err := earl.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := cluster.Watch(earl.Mean(), "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()

	before := cluster.JournalStats()
	queries := []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := cluster.Run(earl.Mean(), "/data", opts); return err }},
		{"RunMulti", func() error {
			_, err := cluster.RunMulti([]earl.Job{earl.Mean(), p50, earl.Count()}, "/data", opts)
			return err
		}},
		{"RunGrouped", func() error {
			_, err := cluster.RunGrouped(earl.Mean(), earl.TabKV, "/kv", opts)
			return err
		}},
		{"RunPlan/pre-map", func() error {
			_, err := cluster.RunPlan(earl.PlanSpec{Path: "/data", Stats: []string{"mean"},
				Filter: "v > 40", Sampler: "pre-map"}, opts)
			return err
		}},
		{"RunPlan/post-map", func() error {
			_, err := cluster.RunPlan(earl.PlanSpec{Path: "/kv", Stats: []string{"mean"},
				Filter: `v > 40 && key != "g3"`, Derive: "v * 2 + 1", GroupBy: "key", Sampler: "post-map"}, opts)
			return err
		}},
		{"Watch.Refresh", func() error { _, err := watch.Refresh(); return err }},
	}
	for _, q := range queries {
		if err := q.run(); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		after := cluster.JournalStats()
		if after.Commits != before.Commits || after.Bytes != before.Bytes {
			t.Fatalf("%s wrote to the journal: %d commits / %d B → %d commits / %d B",
				q.name, before.Commits, before.Bytes, after.Commits, after.Bytes)
		}
	}

	// Crash the filesystem at its next commit. Every mutation now fails;
	// a query — which mutates nothing — answers bit-identically.
	want, err := cluster.Run(earl.Mean(), "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.UsedFull {
		t.Fatalf("want the sampled engine, got the exact fall-back: %+v", want)
	}
	cluster.SetFaultPlan(&earl.FaultPlan{CrashAtCommit: cluster.Env().FS.JournalStats().Commits + 1})
	if err := cluster.AppendValues("/data", []float64{1, 2, 3}); !errors.Is(err, dfs.ErrCrashed) {
		t.Fatalf("append at the crash point returned %v, want ErrCrashed", err)
	}
	got, err := cluster.Run(earl.Mean(), "/data", opts)
	if err != nil {
		t.Fatalf("query on a crashed filesystem: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report changed across the crash:\n got %+v\nwant %+v", got, want)
	}
}
