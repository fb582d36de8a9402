package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/workload"
)

// sideBySidePins are FNV-64a over the four plans, the four reports and
// the simcost snapshot of the runs below, recorded at cc10226 — when the
// statistics' SSABEs ran one after another. The Gaussian run is sampled;
// the Zipf one plans all four and then falls back to the exact pass.
var sideBySidePins = map[workload.Dist]uint64{
	workload.Gaussian: 0x391d5c83bba7b303,
	workload.Zipf:     0x0a6d3a8e665023f0,
}

// TestPlansSideBySideEqualOneByOne: planning a query's statistics
// concurrently changes no plan, no report and no modelled cost — each
// SSABE is a function of the pilot, its reducer and the seed, and the
// cost counters are commutative adds — at Parallelism 1 (one SSABE at a
// time, as before) and at 4.
func TestPlansSideBySideEqualOneByOne(t *testing.T) {
	jset := multiJobSet(t)
	for _, dist := range []workload.Dist{workload.Gaussian, workload.Zipf} {
		for _, par := range []int{1, 4} {
			pq := JobQuery(jset, "/data", Options{Sigma: 0.05, Seed: 62, Parallelism: par})
			// The plans are read off a retained run of the same query on a
			// twin cluster; the reports and the cost are the one-shot's.
			twin, _ := testEnv(t, 120_000, dist, 61)
			_, st, err := Execute(twin, pq, true)
			if err != nil {
				t.Fatal(err)
			}
			env, _ := testEnv(t, 120_000, dist, 61)
			env.Metrics.Reset()
			res, _, err := Execute(env, pq, false)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for i := range jset {
				fmt.Fprintf(h, "%+v|%+v|", st.plans[i], res.Reports[i])
			}
			fmt.Fprintf(h, "%+v", env.Metrics.Snapshot())
			if got, want := h.Sum64(), sideBySidePins[dist]; got != want {
				t.Errorf("%s at Parallelism %d: fingerprint %#x, pinned %#x", dist, par, got, want)
			}
		}
	}
}

// failingReducer is a mean reducer whose Initialize fails.
type failingReducer struct {
	mr.IncrementalReducer
	err error
}

func (r failingReducer) Initialize(string) (mr.State, error) { return nil, r.err }

// TestPlanningReturnsFirstErrorInStatisticOrder: when the SSABEs of
// statistics 2 and 3 of 3 both fail, the run fails with statistic 2's
// error, whichever finished first.
func TestPlanningReturnsFirstErrorInStatisticOrder(t *testing.T) {
	errSecond, errThird := errors.New("second statistic"), errors.New("third statistic")
	failing := func(name string, err error) jobs.Numeric {
		job := jobs.Mean()
		job.Name, job.Reducer = name, failingReducer{job.Reducer, err}
		return job
	}
	jset := []jobs.Numeric{jobs.Median(), failing("second", errSecond), failing("third", errThird)}
	for _, par := range []int{1, 4} {
		env, _ := testEnv(t, 60_000, workload.Gaussian, 63)
		_, err := RunMulti(env, jset, "/data", Options{Sigma: 0.05, Seed: 64, Parallelism: par})
		if !errors.Is(err, errSecond) {
			t.Errorf("Parallelism %d: err = %v, want the second statistic's", par, err)
		}
	}
}
