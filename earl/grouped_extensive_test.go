package earl_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/earl"
)

// TestGroupedSumCountAreOfTheData holds a grouped sum and a grouped
// count to the data's, not the sample's: each group's estimate is
// corrected by the sampling fraction, its reported error counts the
// noise of the group's share of the sample (a count's resamples all
// agree, so nothing else would), and the report says Converged only
// when every group's error is within σ.
func TestGroupedSumCountAreOfTheData(t *testing.T) {
	const records, keys, sigma = 400_000, 4, 0.05
	rng := rand.New(rand.NewPCG(23, 5))
	data := make([]byte, 0, records*12)
	var sum, count [keys]float64
	for i := 0; i < records; i++ {
		k := rng.IntN(keys)
		v := math.Round((100+10*rng.NormFloat64())*100) / 100
		sum[k] += v
		count[k]++
		data = fmt.Appendf(data, "k%d\t%.2f\n", k, v)
	}
	cluster, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.WriteFile("/kv", data); err != nil {
		t.Fatal(err)
	}
	for _, sampler := range []earl.SamplerKind{earl.PreMapSampling, earl.PostMapSampling} {
		for _, tc := range []struct {
			job   earl.Job
			truth [keys]float64
		}{{earl.Sum(), sum}, {earl.Count(), count}} {
			name := fmt.Sprintf("%s/%s", tc.job.Name, sampler)
			rep, err := cluster.RunGrouped(tc.job, earl.TabKV, "/kv",
				earl.Options{Sigma: sigma, Seed: 7, Sampler: sampler, Parallelism: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(rep.Groups) != keys {
				t.Fatalf("%s: %d groups, want %d", name, len(rep.Groups), keys)
			}
			worst := 0.0
			for k := 0; k < keys; k++ {
				g := rep.Groups[fmt.Sprintf("k%d", k)]
				// 3σ: the bound asked for is one standard error.
				if rel := math.Abs(g.Estimate-tc.truth[k]) / tc.truth[k]; rel > 3*sigma {
					t.Errorf("%s k%d: estimate %.1f is %.1f%% off the true %.1f (sample %d of %d)",
						name, k, g.Estimate, 100*rel, tc.truth[k], g.SampleSize, rep.SampleSize)
				}
				if g.CV <= 0 {
					t.Errorf("%s k%d: reported error %v for a sampled group", name, k, g.CV)
				}
				worst = max(worst, g.CV)
			}
			if rep.Converged != (worst <= sigma) {
				t.Errorf("%s: Converged = %v with a worst group error of %.4f (σ = %v)", name, rep.Converged, worst, sigma)
			}
		}
	}
}
