// Command multistat demonstrates shared-pass multi-statistic queries —
// the dashboard workload: mean, p50, p95 and count of the same column,
// answered early from ONE pilot, ONE sample and ONE pass over the
// records. It measures simcost.RecordsRead for each statistic alone and
// for the 4-statistic shared pass, showing the shared pass reads no
// more than the most demanding single statistic (≤1.1×, the engine's
// acceptance criterion), then keeps all four fresh under appends with
// one delta refresh per batch via WatchMulti.
package main

import (
	"fmt"
	"log"

	"repro/earl"
	"repro/internal/workload"
)

func main() {
	p50, err := earl.JobByName("p50")
	if err != nil {
		log.Fatal(err)
	}
	p95, err := earl.JobByName("p95")
	if err != nil {
		log.Fatal(err)
	}
	jset := []earl.Job{earl.Mean(), p50, p95, earl.Count()}

	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 300_000, Seed: 2}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	newCluster := func() *earl.Cluster {
		cluster, err := earl.NewCluster(earl.ClusterConfig{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.WriteValues("/metrics/latency", xs); err != nil {
			log.Fatal(err)
		}
		cluster.ResetMetrics()
		return cluster
	}
	opts := earl.Options{Sigma: 0.05, Seed: 3}

	// Each statistic alone: four separate runs, four separate scans.
	fmt.Println("-- one run per statistic (four separate sampling passes) --")
	var totalSeparate, maxSingle int64
	for _, job := range jset {
		cluster := newCluster()
		rep, err := cluster.Run(job, "/metrics/latency", opts)
		if err != nil {
			log.Fatal(err)
		}
		read := cluster.Metrics().RecordsRead
		totalSeparate += read
		if read > maxSingle {
			maxSingle = read
		}
		fmt.Printf("  %-14s: %12.4f  (cv %.3f, B=%d)  %5d records read\n",
			rep.Job, rep.Estimate, rep.CV, rep.B, read)
	}

	// All four in one shared pass.
	cluster := newCluster()
	reps, err := cluster.RunMulti(jset, "/metrics/latency", opts)
	if err != nil {
		log.Fatal(err)
	}
	multiRead := cluster.Metrics().RecordsRead
	fmt.Println("-- one shared-pass run (RunMulti) --")
	for _, rep := range reps {
		fmt.Printf("  %-14s: %12.4f  (cv %.3f, B=%d)\n", rep.Job, rep.Estimate, rep.CV, rep.B)
	}
	fmt.Printf("  records read  : %d — vs %d for four separate runs (%.1fx) and %d for the largest single (%.2fx ≤ 1.1x)\n",
		multiRead, totalSeparate, float64(totalSeparate)/float64(multiRead),
		maxSingle, float64(multiRead)/float64(maxSingle))

	// Maintained: all four statistics stay fresh under appends with one
	// delta refresh per batch.
	w, err := cluster.WatchMulti(jset, "/metrics/latency", opts)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	fmt.Println("-- maintained under ingest (WatchMulti) --")
	for batch := 1; batch <= 2; batch++ {
		delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: 50_000, Seed: 10 + uint64(batch)}.Generate()
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.AppendValues("/metrics/latency", delta); err != nil {
			log.Fatal(err)
		}
		before := cluster.Metrics()
		fresh, err := w.Refresh()
		if err != nil {
			log.Fatal(err)
		}
		cost := cluster.Metrics().Sub(before)
		fmt.Printf("  append %d      : +%d records; refresh read %d records for all %d statistics\n",
			batch, len(delta), cost.RecordsRead, len(jset))
		for _, rep := range fresh.Reports {
			fmt.Printf("    %-12s: %12.4f  (cv %.3f, sample %d)\n", rep.Job, rep.Estimate, rep.CV, rep.SampleSize)
		}
	}
}
