package earl_test

import (
	"reflect"
	"testing"

	"repro/earl"
	"repro/internal/workload"
)

// runOnce executes one fixed-seed end-to-end run on a fresh cluster.
func runOnce(t *testing.T, par int, sampler earl.SamplerKind) earl.Report {
	t.Helper()
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 14, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 90_000, Seed: 42}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteValues("/data", xs); err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.Run(earl.Mean(), "/data", earl.Options{
		Sigma: 0.05, Seed: 43, Parallelism: par, Sampler: sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEndToEndDeterminismAcrossParallelism pins the engine-wide seeding
// contract at the public API: a fixed-seed Report is bit-identical at
// any Parallelism (1, 4, and 0 = GOMAXPROCS), for both samplers. The
// pre-existing determinism tests stop at the bootstrap/delta layer; this
// one covers the full sampled driver, whose reducers canonicalise each
// round's records before growing resamples.
func TestEndToEndDeterminismAcrossParallelism(t *testing.T) {
	for _, sampler := range []earl.SamplerKind{earl.PreMapSampling, earl.PostMapSampling} {
		golden := runOnce(t, 1, sampler)
		for _, par := range []int{4, 0} {
			got := runOnce(t, par, sampler)
			if !reflect.DeepEqual(golden, got) {
				t.Errorf("%s: Parallelism=%d report differs from sequential:\n  p=1: %+v\n  p=%d: %+v",
					sampler, par, golden, par, got)
			}
		}
	}
}

// TestEndToEndDeterminismAcrossRepeats guards against scheduling
// nondeterminism at a fixed parallelism: three identical runs must agree
// bit for bit.
func TestEndToEndDeterminismAcrossRepeats(t *testing.T) {
	golden := runOnce(t, 0, earl.PreMapSampling)
	for i := 0; i < 2; i++ {
		if got := runOnce(t, 0, earl.PreMapSampling); !reflect.DeepEqual(golden, got) {
			t.Fatalf("repeat %d differs:\n  first: %+v\n  got:   %+v", i, golden, got)
		}
	}
}
