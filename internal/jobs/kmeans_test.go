package jobs

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simcost"
	"repro/internal/workload"
)

func mixture(t *testing.T, n int) ([]workload.Point, []workload.Point) {
	t.Helper()
	pts, centers, err := workload.MixtureSpec{
		K: 4, Dim: 2, N: n, Spread: 1.0, Sep: 100, Seed: 21,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return pts, centers
}

func TestKMeansFitRecoversCenters(t *testing.T) {
	pts, truth := mixture(t, 2000)
	res, err := KMeans{K: 4, Seed: 5}.Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 4 {
		t.Fatalf("got %d centers", len(res.Centers))
	}
	errRel, err := CentroidError(res.Centers, truth)
	if err != nil {
		t.Fatal(err)
	}
	if errRel > 0.05 {
		t.Fatalf("centroid error %v > 5%%", errRel)
	}
	if res.WCSS <= 0 {
		t.Fatalf("WCSS = %v", res.WCSS)
	}
	if res.Iterations < 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}

func TestKMeansFitOnSampleStaysAccurate(t *testing.T) {
	// §6.3's claim: EARL's sampled K-Means finds centroids within 5% of
	// optimal. Fit on a 5% uniform sample and compare to the truth.
	pts, truth := mixture(t, 20000)
	rng := rand.New(rand.NewPCG(7, 8))
	sample := make([]workload.Point, 1000)
	for i := range sample {
		sample[i] = pts[rng.IntN(len(pts))]
	}
	res, err := KMeans{K: 4, Seed: 9}.Fit(sample)
	if err != nil {
		t.Fatal(err)
	}
	errRel, err := CentroidError(res.Centers, truth)
	if err != nil {
		t.Fatal(err)
	}
	if errRel > 0.05 {
		t.Fatalf("sampled centroid error %v > 5%%", errRel)
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, err := (KMeans{K: 0}).Fit([]workload.Point{{1}}); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := (KMeans{K: 3}).Fit([]workload.Point{{1}, {2}}); err == nil {
		t.Fatal("fewer points than K should error")
	}
	if _, err := (KMeans{K: 1}).Fit(nil); err == nil {
		t.Fatal("empty should error")
	}
}

func TestKMeansDegenerateIdenticalPoints(t *testing.T) {
	pts := make([]workload.Point, 50)
	for i := range pts {
		pts[i] = workload.Point{1, 2}
	}
	res, err := KMeans{K: 3, Seed: 1}.Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WCSS != 0 {
		t.Fatalf("WCSS = %v for identical points", res.WCSS)
	}
}

func TestKMeansFitMRMatchesInMemory(t *testing.T) {
	pts, truth := mixture(t, 3000)
	var m simcost.Metrics
	fsys := dfs.New(dfs.Config{BlockSize: 1 << 14, Replication: 2, DataNodes: 5, Metrics: &m, Seed: 2})
	if err := fsys.WriteFile("/pts", workload.EncodePoints(pts)); err != nil {
		t.Fatal(err)
	}
	res, err := KMeans{K: 4, Seed: 3}.FitMR(fsys, &m, "/pts")
	if err != nil {
		t.Fatal(err)
	}
	errRel, err := CentroidError(res.Centers, truth)
	if err != nil {
		t.Fatal(err)
	}
	if errRel > 0.05 {
		t.Fatalf("MR centroid error %v > 5%%", errRel)
	}
	// One MR job per iteration plus the WCSS pass.
	s := m.Snapshot()
	if s.JobStartups < int64(res.Iterations) {
		t.Fatalf("JobStartups = %d < iterations %d", s.JobStartups, res.Iterations)
	}
	if res.WCSS <= 0 {
		t.Fatalf("WCSS = %v", res.WCSS)
	}
}

func TestCentroidErrorIdentity(t *testing.T) {
	truth := []workload.Point{{0, 0}, {10, 0}, {0, 10}}
	e, err := CentroidError(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("self error = %v", e)
	}
	if _, err := CentroidError(nil, truth); err == nil {
		t.Fatal("empty got should error")
	}
}

func TestWCSSOfDecreasesWithBetterCenters(t *testing.T) {
	pts, truth := mixture(t, 1000)
	bad := []workload.Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	if WCSSOf(truth, pts) >= WCSSOf(bad, pts) {
		t.Fatal("true centers should have lower WCSS than arbitrary ones")
	}
}
