// Command continuous demonstrates maintained queries over continuously
// ingested data: one Watch gives the first early answer, then batches of
// new records stream in via Append and each Refresh brings the answer up
// to date by sampling only the appended blocks — EARL's delta
// maintenance (§4.1) applied across the lifetime of a dataset. The
// simcost counters printed per cycle show the point: each refresh reads
// a sliver of the delta, while a from-scratch run would start over on an
// ever-bigger file.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/earl"
	"repro/internal/workload"
)

func main() {
	cluster, err := earl.NewCluster(earl.ClusterConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Day zero: half a million Gaussian records.
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 500_000, Seed: 2}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WriteValues("/stream/metrics", xs); err != nil {
		log.Fatal(err)
	}
	cluster.ResetMetrics()

	w, err := cluster.Watch(earl.Mean(), "/stream/metrics", earl.Options{
		Sigma: 0.05,
		Seed:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	first := w.Result().Reports[0]
	fmt.Printf("first answer : %.4f (cv %.4f) from a %d-record sample of ~%d\n",
		first.Estimate, first.CV, first.SampleSize, first.EstTotalN)

	// Data keeps arriving: five batches of 100k records, each appended as
	// fresh replicated blocks; existing blocks and splits are untouched.
	total := 500_000
	for day := 1; day <= 5; day++ {
		batch, err := workload.NumericSpec{
			Dist: workload.Gaussian, N: 100_000, Seed: uint64(100 + day),
		}.Generate()
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.AppendValues("/stream/metrics", batch); err != nil {
			log.Fatal(err)
		}
		total += len(batch)

		before := cluster.Metrics()
		res, err := w.Refresh()
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Reports[0] // one statistic, so one report
		cost := cluster.Metrics().Sub(before)
		fmt.Printf("day %d refresh: %.4f (cv %.4f, sample %d) — read %5d records of the %d appended (%d on disk)\n",
			day, rep.Estimate, rep.CV, rep.SampleSize,
			cost.RecordsRead, len(batch), total)
	}

	// The receipts: the maintained answer vs the exact truth over all
	// data ingested so far.
	exact, n, err := cluster.RunExact(earl.Mean(), "/stream/metrics")
	if err != nil {
		log.Fatal(err)
	}
	last := w.Result().Reports[0]
	off := math.Abs((last.Estimate - exact) / exact)
	fmt.Printf("exact        : %.4f over %d records — maintained answer off by %.3f%%\n",
		exact, n, 100*off)
}
