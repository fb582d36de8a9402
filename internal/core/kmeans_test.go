package core

import (
	"reflect"
	"testing"

	"repro/internal/jobs"
	"repro/internal/workload"
)

func kmeansEnv(t testing.TB, n int) (*Env, []workload.Point) {
	t.Helper()
	env, err := NewEnv(EnvConfig{BlockSize: 1 << 14, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	pts, truth, err := workload.MixtureSpec{
		K: 4, Dim: 2, N: n, Spread: 1.5, Sep: 120, Seed: 34,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/pts", workload.EncodePoints(pts)); err != nil {
		t.Fatal(err)
	}
	return env, truth
}

func TestRunKMeansEarlyConverges(t *testing.T) {
	env, truth := kmeansEnv(t, 60_000)
	rep, err := RunKMeans(env, "/pts", jobs.KMeans{K: 4, Seed: 35}, KMeansOptions{Sigma: 0.05, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("did not converge: %+v", rep)
	}
	if rep.CV > 0.05 {
		t.Fatalf("cv = %v", rep.CV)
	}
	// §6.3: centroids within 5% of the optimal.
	errRel, err := jobs.CentroidError(rep.Centers, truth)
	if err != nil {
		t.Fatal(err)
	}
	if errRel > 0.05 {
		t.Fatalf("centroid error %v > 5%%", errRel)
	}
	// EARL processed a small fraction of the points.
	if float64(rep.SampleSize) > 0.2*60_000 {
		t.Fatalf("sample %d not small", rep.SampleSize)
	}
}

func TestRunKMeansReadsLessThanMR(t *testing.T) {
	env, _ := kmeansEnv(t, 60_000)
	size, _ := env.FS.Stat("/pts")
	if _, err := RunKMeans(env, "/pts", jobs.KMeans{K: 4, Seed: 37}, KMeansOptions{Seed: 38}); err != nil {
		t.Fatal(err)
	}
	if read := env.Metrics.BytesRead.Load(); read > size/2 {
		t.Fatalf("early K-Means read %d of %d bytes", read, size)
	}
}

func TestRunKMeansValidation(t *testing.T) {
	if _, err := RunKMeans(nil, "/pts", jobs.KMeans{K: 2}, KMeansOptions{}); err == nil {
		t.Fatal("nil env should error")
	}
	env, _ := kmeansEnv(t, 100)
	if _, err := RunKMeans(env, "/missing", jobs.KMeans{K: 2}, KMeansOptions{}); err == nil {
		t.Fatal("missing path should error")
	}
}

// TestRunKMeansReadsItsRunsCommit: handed a run's Env, RunKMeans samples
// the commit the run pinned, not points written over the file since.
func TestRunKMeansReadsItsRunsCommit(t *testing.T) {
	kcfg, opts := jobs.KMeans{K: 4, Seed: 39}, KMeansOptions{Seed: 40}
	env, _ := kmeansEnv(t, 20_000)
	want, err := RunKMeans(env, "/pts", kcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	run, release := env.Open(env.Metrics)
	defer release()
	moved, _, err := workload.MixtureSpec{K: 4, Dim: 2, N: 20_000, Spread: 9, Sep: 40, Seed: 41}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/pts", workload.EncodePoints(moved)); err != nil {
		t.Fatal(err)
	}
	got, err := RunKMeans(run, "/pts", kcfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a run's K-Means read a later commit:\ngot  %+v\nwant %+v", got, want)
	}
}
