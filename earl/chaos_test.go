package earl_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/earl"
	"repro/internal/dfs"
	"repro/internal/workload"
)

// chaosData is the fixed workload every chaos scenario ingests: enough
// records over a small block size that reads span many blocks (so
// injected per-block faults actually strike) plus a couple of appends
// so the journal holds a realistic multi-commit history.
func chaosData(t *testing.T) ([]float64, []float64) {
	t.Helper()
	base, err := workload.NumericSpec{Dist: workload.Gaussian, N: 40_000, Seed: 81}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	tail, err := workload.NumericSpec{Dist: workload.Uniform, N: 4_000, Seed: 82}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return base, tail
}

// chaosCluster builds a cluster with the fixed chaos topology and
// ingests the workload as write + append commits.
func chaosCluster(t *testing.T, base, tail []float64) *earl.Cluster {
	t.Helper()
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteValues("/data", base); err != nil {
		t.Fatal(err)
	}
	if err := cluster.AppendValues("/data", tail); err != nil {
		t.Fatal(err)
	}
	return cluster
}

// TestChaosReportsBitIdentical is the fault-injection acceptance
// contract: with a fixed seed, the report is bit-identical across
// {no faults, injected transient read errors, slow replicas,
// crash + journal recovery} — and at every Parallelism in {1, 4, 0}.
// Transient faults may cost retries and slow replicas may cost time,
// but neither may ever change an answer; a recovered cluster answers
// exactly as the original did at the replayed commit point.
func TestChaosReportsBitIdentical(t *testing.T) {
	base, tail := chaosData(t)
	opts := earl.Options{Sigma: 0.05, Seed: 84}

	var reference *earl.Report
	for _, par := range []int{1, 4, 0} {
		opts.Parallelism = par

		clean := chaosCluster(t, base, tail)
		want, err := clean.Run(earl.Mean(), "/data", opts)
		if err != nil {
			t.Fatalf("par %d: clean run: %v", par, err)
		}
		if reference == nil {
			ref := want
			reference = &ref
		} else if !reflect.DeepEqual(want, *reference) {
			t.Fatalf("par %d: clean report differs across parallelism:\n%+v\nvs\n%+v", par, want, *reference)
		}

		scenarios := []struct {
			name string
			plan earl.FaultPlan
		}{
			{"read-errors", earl.FaultPlan{Seed: 85, ReadErrorRate: 0.25}},
			{"slow-replicas", earl.FaultPlan{Seed: 85, SlowNodes: []int{1, 3}, SlowDelay: 100 * time.Microsecond}},
		}
		for _, sc := range scenarios {
			cluster := chaosCluster(t, base, tail)
			cluster.SetFaultPlan(&sc.plan)
			got, err := cluster.Run(earl.Mean(), "/data", opts)
			if err != nil {
				t.Fatalf("par %d, %s: %v", par, sc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("par %d, %s: report changed under injected faults:\n got %+v\nwant %+v", par, sc.name, got, want)
			}
		}

		// Crash + recover: the cluster loses power mid-commit right after
		// the ingest (torn final write), the journal image is replayed,
		// and the recovered cluster must answer exactly as the original.
		crashed := chaosCluster(t, base, tail)
		crashed.SetFaultPlan(&earl.FaultPlan{CrashAtCommit: crashed.Env().FS.JournalStats().Commits + 1, TornTail: true})
		if err := crashed.AppendValues("/data", []float64{1, 2, 3}); !errors.Is(err, dfs.ErrCrashed) {
			t.Fatalf("par %d: crash-at-commit append returned %v, want ErrCrashed", par, err)
		}
		recovered, rst, err := earl.RecoverCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: 83}, crashed.JournalBytes())
		if err != nil {
			t.Fatalf("par %d: recover: %v", par, err)
		}
		if !rst.TornTail {
			t.Fatalf("par %d: recovery missed the torn tail: %+v", par, rst)
		}
		got, err := recovered.Run(earl.Mean(), "/data", opts)
		if err != nil {
			t.Fatalf("par %d: recovered run: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par %d: recovered report differs:\n got %+v\nwant %+v", par, got, want)
		}
		js := recovered.JournalStats()
		if !js.Recovered || js.Recovery.Commits != rst.Commits {
			t.Fatalf("par %d: recovered cluster journal stats %+v", par, js)
		}
	}
}
