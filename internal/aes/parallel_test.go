package aes

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// plainReducer hides every optional capability of the reducer it wraps:
// no lanes, no ranking — each resample folds item by item.
type plainReducer struct{ mr.IncrementalReducer }

// TestSSABESameBitsAtAnyParallelism: phase 2's replicates run side by
// side on shared rankings, and the plan — B, N, the curve, the phase-1
// trace and every phase-2 point, floats by bits — and its modelled cost
// are the same at every Parallelism, for a lane reducer (mean), a ranked
// one (p50), p50 over a pilot whose every segment holds +0 beside −0 (so
// nothing is ranked), and a reducer with neither capability.
func TestSSABESameBitsAtAnyParallelism(t *testing.T) {
	zipf, err := workload.NumericSpec{Dist: workload.Zipf, N: 3000, Seed: 61}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	zeros := pilotData(3000, 62)
	for i := range zeros {
		switch i % 40 {
		case 0:
			zeros[i] = 0
		case 20:
			zeros[i] = math.Copysign(0, -1)
		}
	}
	p50Job, err := jobs.ByName("p50")
	if err != nil {
		t.Fatal(err)
	}
	mean, p50 := jobs.Mean().Reducer, p50Job.Reducer
	for _, seg := range segments(zeros, p50) {
		if seg.rank != nil {
			t.Fatalf("the signed-zero pilot's segment ending at %d was ranked", seg.end)
		}
	}
	if segments(zipf, p50)[0].rank == nil {
		t.Fatal("the zipf pilot's first segment was not ranked")
	}
	for _, c := range []struct {
		name  string
		red   mr.IncrementalReducer
		pilot []float64
	}{
		{"mean", mean, zipf},
		{"p50", p50, zipf},
		{"p50/signed-zeros", p50, zeros},
		{"plain-mean", plainReducer{mean}, pilotData(3000, 63)},
	} {
		for _, seed := range []uint64{1, 9} {
			var want uint64
			var wantCost simcost.Snapshot
			for _, par := range []int{1, 2, 3, 8} {
				metrics := &simcost.Metrics{}
				plan, err := SSABE(c.pilot, 10_000_000, Config{Reducer: c.red, Sigma: 0.02, Seed: seed, Metrics: metrics, Parallelism: par})
				if err != nil {
					t.Fatalf("%s seed %d parallelism %d: %v", c.name, seed, par, err)
				}
				got, cost := planFingerprint(plan), metrics.Snapshot()
				if par == 1 {
					want, wantCost = got, cost
					continue
				}
				if got != want || cost != wantCost {
					t.Errorf("%s seed %d parallelism %d: plan %#x cost %+v (B=%d N=%d), at 1: %#x %+v",
						c.name, seed, par, got, cost, plan.B, plan.N, want, wantCost)
				}
			}
		}
	}
}

// BenchmarkSSABE times one SSABE — phase 1 and phase 2's three
// replicates — over a 10 k Zipf pilot, sequentially and at GOMAXPROCS:
// for mean and for p50 alone, and for mean, p50 and count planned
// together, as a query of the three is.
func BenchmarkSSABE(b *testing.B) {
	pilot, err := workload.NumericSpec{Dist: workload.Zipf, N: 10_000, Seed: 5}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		stats []string
		sigma float64
	}{
		{[]string{"mean"}, 0.01},
		{[]string{"p50"}, 0.01},
		{[]string{"mean", "p50", "count"}, 0.05},
	} {
		for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
			cfgs := make([]Config, len(c.stats))
			for i, name := range c.stats {
				job, err := jobs.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				cfgs[i] = Config{Reducer: job.Reducer, Key: name, Sigma: c.sigma, Seed: 3, Parallelism: par}
			}
			b.Run(fmt.Sprintf("%s/par=%d", strings.Join(c.stats, "+"), par), func(b *testing.B) {
				for range b.N {
					if _, err := PlanAll(pilot, 1_000_000, cfgs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
