// Command categorical exercises Appendix A: EARL over categorical data.
// The statistic is a proportion of "successes" (here: the fraction of
// requests that errored); the binomial proportion is asymptotically
// normal, so a z-based confidence interval applies on top of the early
// estimate. The example also demonstrates the dependent-data path: an
// AR(1) series where the i.i.d. bootstrap understates the error and the
// moving-block bootstrap of Appendix A fixes it.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"repro/earl"
	"repro/internal/bootstrap"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	cluster, err := earl.NewCluster(earl.ClusterConfig{Seed: 41})
	if err != nil {
		log.Fatal(err)
	}

	// --- Categorical: error-rate estimation. ---------------------------
	const trueRate = 0.073
	xs, err := workload.CategoricalSpec{P: trueRate, N: 800_000, Seed: 42}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WriteValues("/logs/errors", xs); err != nil {
		log.Fatal(err)
	}
	rep, err := cluster.Run(earl.Proportion(), "/logs/errors", earl.Options{Sigma: 0.05, Seed: 43})
	if err != nil {
		log.Fatal(err)
	}
	// Appendix A's z-interval from the same sample size.
	z, _ := stats.NormalQuantile(0.975)
	half := z * math.Sqrt(rep.Estimate*(1-rep.Estimate)/float64(rep.SampleSize))
	fmt.Printf("error rate ≈ %.4f (true %.4f) from %d of ~%d records\n",
		rep.Estimate, trueRate, rep.SampleSize, rep.EstTotalN)
	fmt.Printf("  bootstrap cv %.3f; z-based 95%% interval ±%.4f\n", rep.CV, half)

	// --- Dependent data: block bootstrap (Appendix A). -----------------
	series, err := workload.AR1Spec{Phi: 0.85, Sigma: 1, Mu: 10, N: 20_000, Seed: 44}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	rngA := rand.New(rand.NewPCG(45, 1))
	rngB := rand.New(rand.NewPCG(45, 2))
	iid, err := bootstrap.ParallelMonteCarlo(rngA, series, bootstrap.Mean, 200, 0)
	if err != nil {
		log.Fatal(err)
	}
	blockLen := bootstrap.AutoBlockLength(len(series)) * 4
	blk, err := bootstrap.ParallelMovingBlock(rngB, series, blockLen, bootstrap.Mean, 200, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAR(1) series mean stderr: iid bootstrap %.4f vs block bootstrap %.4f (block=%d)\n",
		iid.StdErr, blk.StdErr, blockLen)
	fmt.Println("  the iid bootstrap understates the error on dependent data — Appendix A's point.")
}
