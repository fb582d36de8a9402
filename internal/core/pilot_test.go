package core

import (
	"testing"

	"repro/internal/jobs"
	"repro/internal/workload"
)

// TestPilotReadsCharged pins the pilot cost attribution: the records the
// pilot phase draws through the sampler are input reads and must land in
// simcost.RecordsRead. COUNT's reducer consumes almost nothing, so
// before the attribution a converged count run reported ~1 record read —
// the pilot floor (minPilot = 512) dominates its true cost.
func TestPilotReadsCharged(t *testing.T) {
	env, _ := testEnv(t, 200_000, workload.Gaussian, 40)
	env.Metrics.Reset()
	rep, err := Run(env, jobs.Count(), "/data", Options{Sigma: 0.05, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedFull {
		t.Fatalf("expected sampling path: %+v", rep)
	}
	if read := env.Metrics.RecordsRead.Load(); read < 512 {
		t.Fatalf("RecordsRead = %d after a count run; the ≥512-record pilot was not charged", read)
	}
}

// TestSharedPilotSavingVisible: a 2-statistic shared-pass run draws ONE
// pilot, so its total reads must undercut the summed single-statistic
// runs (which pay the pilot once each) — the counter-visible saving the
// attribution exists to expose.
func TestSharedPilotSavingVisible(t *testing.T) {
	single := func(job jobs.Numeric) int64 {
		env, _ := testEnv(t, 200_000, workload.Gaussian, 40)
		env.Metrics.Reset()
		rep, err := Run(env, job, "/data", Options{Sigma: 0.05, Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		if rep.UsedFull {
			t.Fatalf("%s fell back to exact", job.Name)
		}
		return env.Metrics.RecordsRead.Load()
	}
	sumSingles := single(jobs.Count()) + single(jobs.Mean())

	env, _ := testEnv(t, 200_000, workload.Gaussian, 40)
	env.Metrics.Reset()
	if _, err := RunMulti(env, []jobs.Numeric{jobs.Count(), jobs.Mean()}, "/data", Options{Sigma: 0.05, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	multiRead := env.Metrics.RecordsRead.Load()
	if multiRead >= sumSingles {
		t.Fatalf("shared-pass run read %d records vs %d for the two singles — shared pilot saving invisible", multiRead, sumSingles)
	}
}
