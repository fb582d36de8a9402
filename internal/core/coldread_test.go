package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/colscan"
	"repro/internal/colseg"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/workload"
)

// coldEnv builds a simulated cluster with /data (60k numeric records)
// and /kv (30k key\tvalue records), with persistent columnar sidecars
// either live or disabled end to end. Every run against a fresh env is
// a cold read: the scan cache is empty, so the sidecar path (or the
// text decoder, when disabled) serves every first load.
func coldEnv(t *testing.T, disableSidecars bool) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{
		DataNodes:       5,
		BlockSize:       1 << 14,
		Replication:     2,
		Seed:            21,
		DisableSidecars: disableSidecars,
	})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 60_000, Seed: 21}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/kv", kvData()); err != nil {
		t.Fatal(err)
	}
	if !disableSidecars {
		for _, p := range []string{"/data", "/kv"} {
			if _, ok := env.FS.SidecarStat(p); !ok {
				t.Fatalf("ingest built no sidecar for %s", p)
			}
		}
	}
	return env
}

// TestColdReadEquivalenceGoldens pins the tentpole correctness bar: a
// sidecar-backed cold read produces bit-identical reports to the text
// decode path — scalar, grouped, multi-statistic and plan-filtered, at
// sequential, bounded and default parallelism — while actually serving
// from the sidecar (SidecarReads > 0 proves the fast path ran).
func TestColdReadEquivalenceGoldens(t *testing.T) {
	for _, par := range []int{1, 4, 0} {
		t.Run("scalar", func(t *testing.T) {
			run := func(disable bool) (Report, colscan.CacheStats) {
				env := coldEnv(t, disable)
				rep, err := Run(env, jobs.Median(), "/data", Options{
					Sigma: 0.05, Seed: 22, Sampler: PostMapSampling, Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep, env.Scan.Stats()
			}
			side, st := run(false)
			text, _ := run(true)
			if !reflect.DeepEqual(side, text) {
				t.Fatalf("par=%d: sidecar report diverged from text:\n%+v\n%+v", par, side, text)
			}
			if st.SidecarReads == 0 {
				t.Fatalf("par=%d: no cold read came from the sidecar", par)
			}
			if st.SidecarErrors != 0 {
				t.Fatalf("par=%d: %d sidecar errors on clean data", par, st.SidecarErrors)
			}
		})
		t.Run("grouped", func(t *testing.T) {
			run := func(disable bool) GroupedReport {
				env := coldEnv(t, disable)
				rep, err := RunGrouped(env, jobs.Mean(), TabRoute(), "/kv", Options{
					Sigma: 0.05, Seed: 23, Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if side, text := run(false), run(true); !reflect.DeepEqual(side, text) {
				t.Fatalf("par=%d: grouped reports diverged:\n%+v\n%+v", par, side, text)
			}
		})
		t.Run("multi", func(t *testing.T) {
			run := func(disable bool) []Report {
				env := coldEnv(t, disable)
				reps, err := RunMulti(env, []jobs.Numeric{jobs.Mean(), jobs.Median()}, "/data", Options{
					Sigma: 0.05, Seed: 24, Sampler: PostMapSampling, Parallelism: par,
				})
				if err != nil {
					t.Fatal(err)
				}
				return reps
			}
			if side, text := run(false), run(true); !reflect.DeepEqual(side, text) {
				t.Fatalf("par=%d: multi reports diverged:\n%+v\n%+v", par, side, text)
			}
		})
		t.Run("plan-filtered", func(t *testing.T) {
			run := func(disable bool) *PlanResult {
				env := coldEnv(t, disable)
				res, err := RunPlan(env, plan.Spec{
					Path: "/data", Stats: []string{"mean"}, Filter: "v > 0.2",
					Sigma: 0.05, Seed: 25, Sampler: "post-map",
				}, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if side, text := run(false), run(true); !reflect.DeepEqual(side, text) {
				t.Fatalf("par=%d: plan results diverged:\n%+v\n%+v", par, side, text)
			}
		})
	}
}

// TestColdReadCorruptSidecarFallsBack pins the failure contract: a
// damaged sidecar — payload bit flip or truncated footer — is detected
// (ErrCorrupt through the error hook, SidecarErrors counted), the load
// falls back to text decode, and the report stays bit-identical to the
// no-sidecar golden. Corruption costs speed, never a wrong answer.
func TestColdReadCorruptSidecarFallsBack(t *testing.T) {
	opts := Options{Sigma: 0.05, Seed: 26, Sampler: PostMapSampling, Parallelism: 4}
	goldenEnv := coldEnv(t, true)
	golden, err := Run(goldenEnv, jobs.Median(), "/data", opts)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(env *Env) bool{
		"payload bit flip": func(env *Env) bool { return env.FS.CorruptSidecarByte("/data", 40) },
		"truncated footer": func(env *Env) bool {
			size, _ := env.FS.SidecarStat("/data")
			return env.FS.TruncateSidecar("/data", size-20)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			env := coldEnv(t, false)
			var mu sync.Mutex
			var hookErrs []error
			env.Scan.OnSidecarError(func(key colscan.BlockKey, err error) {
				mu.Lock()
				hookErrs = append(hookErrs, err)
				mu.Unlock()
			})
			if !hurt(env) {
				t.Fatal("fault injection found no sidecar")
			}
			rep, err := Run(env, jobs.Median(), "/data", opts)
			if err != nil {
				t.Fatalf("run over a corrupt sidecar failed instead of falling back: %v", err)
			}
			if !reflect.DeepEqual(rep, golden) {
				t.Fatalf("corrupt-sidecar report diverged from text golden:\n%+v\n%+v", rep, golden)
			}
			st := env.Scan.Stats()
			if st.SidecarErrors == 0 {
				t.Fatal("corruption went uncounted")
			}
			mu.Lock()
			defer mu.Unlock()
			if len(hookErrs) == 0 {
				t.Fatal("error hook never fired")
			}
			for _, e := range hookErrs {
				if !errors.Is(e, colseg.ErrCorrupt) {
					t.Fatalf("hook error %v does not wrap colseg.ErrCorrupt", e)
				}
			}
		})
	}
}
