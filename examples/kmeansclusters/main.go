// Command kmeansclusters runs the paper's advanced-mining experiment
// (§6.3, Fig. 7): K-Means over a Gaussian-mixture point cloud, once as
// the stock iterated-MapReduce job (one MR job per Lloyd iteration, full
// scans) and once through EARL (sample, fit, bootstrap the clustering
// cost, expand until the 5% bound holds). It verifies the paper's
// quality claim — EARL's centroids land within 5% of the true ones —
// and shows the resource gap.
package main

import (
	"fmt"
	"log"

	"repro/earl"
	"repro/internal/jobs"
	"repro/internal/workload"
)

func main() {
	cluster, err := earl.NewCluster(earl.ClusterConfig{Seed: 21})
	if err != nil {
		log.Fatal(err)
	}

	const k = 5
	pts, truth, err := workload.MixtureSpec{
		K: k, Dim: 3, N: 200_000, Spread: 2.0, Sep: 150, Seed: 22,
	}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WriteFile("/mining/points", workload.EncodePoints(pts)); err != nil {
		log.Fatal(err)
	}

	kcfg := earl.KMeans{K: k, Seed: 23}

	cluster.ResetMetrics()
	rep, err := cluster.RunKMeans("/mining/points", kcfg, earl.KMeansOptions{Sigma: 0.05, Seed: 24})
	if err != nil {
		log.Fatal(err)
	}
	early := cluster.Metrics()
	earlErr, err := jobs.CentroidError(rep.Centers, truth)
	if err != nil {
		log.Fatal(err)
	}

	cluster.ResetMetrics()
	env := cluster.Env()
	run, release := env.Open(env.Metrics)
	stock, err := kcfg.FitMR(run.View(), run.Metrics, "/mining/points")
	release()
	if err != nil {
		log.Fatal(err)
	}
	full := cluster.Metrics()
	stockErr, err := jobs.CentroidError(stock.Centers, truth)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("EARL K-Means : sample %d of %d pts, cost cv %.3f, Lloyd iters %d\n",
		rep.SampleSize, len(pts), rep.CV, rep.LloydIters)
	fmt.Printf("  centroid error vs truth: %.2f%%  (paper's bound: 5%%)\n", 100*earlErr)
	fmt.Printf("  bytes read %d, MR jobs %d\n", early.BytesRead, early.JobStartups)
	fmt.Printf("stock MR     : full scans × %d Lloyd iterations\n", stock.Iterations)
	fmt.Printf("  centroid error vs truth: %.2f%%\n", 100*stockErr)
	fmt.Printf("  bytes read %d, MR jobs %d\n", full.BytesRead, full.JobStartups)
	fmt.Printf("I/O reduction: %.1fx\n", float64(full.BytesRead)/float64(early.BytesRead))
}
