// Command quickstart is the smallest end-to-end EARL run: load a
// synthetic numeric data set into the simulated cluster, ask for the
// mean with a 5% error bound, and compare the early answer (and how
// little data it touched) against the exact answer, the one the stock
// MapReduce job computes.
package main

import (
	"fmt"
	"log"

	"repro/earl"
	"repro/internal/workload"
)

func main() {
	cluster, err := earl.NewCluster(earl.ClusterConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// One million uniform records, one number per line — the paper's
	// synthetic setting, scaled to a laptop.
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 1_000_000, Seed: 2}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WriteValues("/data/uniform", xs); err != nil {
		log.Fatal(err)
	}
	cluster.ResetMetrics()

	rep, err := cluster.Run(earl.Mean(), "/data/uniform", earl.Options{
		Sigma: 0.05, // accurate to within 5%
		Seed:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	early := cluster.Metrics()

	cluster.ResetMetrics()
	exact, n, err := cluster.RunExact(earl.Mean(), "/data/uniform")
	if err != nil {
		log.Fatal(err)
	}
	full := cluster.Metrics()

	fmt.Printf("EARL early result : %.4f  (cv %.3f, 95%% CI [%.4f, %.4f])\n",
		rep.Estimate, rep.CV, rep.CILo, rep.CIHi)
	fmt.Printf("  sample          : %d of ~%d records (%.2f%%), B=%d bootstraps, %d iteration(s)\n",
		rep.SampleSize, rep.EstTotalN, 100*rep.FractionP, rep.B, rep.Iterations)
	fmt.Printf("  bytes read      : %d (early) vs %d (exact scan)\n", early.BytesRead, full.BytesRead)
	fmt.Printf("exact result      : %.4f over %d records\n", exact, n)
	fmt.Printf("relative error    : %.4f%%\n", 100*abs(rep.Estimate-exact)/exact)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
