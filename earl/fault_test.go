package earl_test

import (
	"math"
	"testing"

	"repro/earl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestKillNodeMidRunBothSamplers pins the §3.4 behaviour that until now
// only an example exercised: losing machines mid-run (their DataNode
// and the tasks placed on them together) must not abort the job — it finishes on
// surviving data and still lands within tolerance of a healthy run's
// estimate, under both sampling algorithms.
func TestKillNodeMidRunBothSamplers(t *testing.T) {
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 200_000, Seed: 71}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := stats.Mean(xs)

	for _, sampler := range []earl.SamplerKind{earl.PreMapSampling, earl.PostMapSampling} {
		sampler := sampler
		t.Run(string(sampler), func(t *testing.T) {
			healthy := faultRun(t, xs, sampler, nil)
			if !healthy.Converged {
				t.Fatalf("healthy run did not converge: %+v", healthy)
			}

			wounded := faultRun(t, xs, sampler, []int{3, 4})
			// The run must deliver an estimate with an error figure, and
			// stay within tolerance of both the healthy run and the truth.
			if wounded.CV <= 0 {
				t.Fatalf("no error estimate after node loss: %+v", wounded)
			}
			if rel := math.Abs(wounded.Estimate-healthy.Estimate) / healthy.Estimate; rel > 0.15 {
				t.Fatalf("estimate after failures %v vs healthy %v (rel %v)", wounded.Estimate, healthy.Estimate, rel)
			}
			if rel := math.Abs(wounded.Estimate-truth) / truth; rel > 0.15 {
				t.Fatalf("estimate after failures %v vs truth %v (rel %v)", wounded.Estimate, truth, rel)
			}
		})
	}
}

// faultRun executes one run, killing the given nodes once the job is
// demonstrably underway (records flowing through mappers).
func faultRun(t *testing.T, xs []float64, sampler earl.SamplerKind, kill []int) earl.Report {
	t.Helper()
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteValues("/data", xs); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	if len(kill) > 0 {
		go func() {
			defer close(done)
			for cluster.Metrics().RecordsMapped < 100 {
			}
			for _, id := range kill {
				if err := cluster.KillNode(id); err != nil {
					t.Errorf("kill node %d: %v", id, err)
				}
			}
		}()
	} else {
		close(done)
	}
	rep, err := cluster.Run(earl.Mean(), "/data", earl.Options{
		Sigma: 0.05, Seed: 73, Sampler: sampler,
	})
	<-done
	if err != nil {
		t.Fatalf("run with node loss should still answer (%s): %v", sampler, err)
	}
	return rep
}
