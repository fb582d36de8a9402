// Command groupedmetrics runs EARL per group key — the native shape of
// MapReduce data. The scenario: per-service request latencies in a
// "service\tlatency" log; every service gets an early mean with its own
// error bound, from one pass over a small uniform sample. Grouped runs
// are an extension beyond the paper's global aggregates (see
// core.Execute).
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"strings"
)

import "repro/earl"

func main() {
	cluster, err := earl.NewCluster(earl.ClusterConfig{Seed: 51})
	if err != nil {
		log.Fatal(err)
	}

	// Synthesize a service log: 6 services with distinct latency levels.
	services := []struct {
		name string
		mean float64
	}{
		{"auth", 12}, {"search", 85}, {"checkout", 140},
		{"images", 30}, {"api", 55}, {"billing", 220},
	}
	rng := rand.New(rand.NewPCG(52, 53))
	var sb strings.Builder
	const n = 500_000
	for i := 0; i < n; i++ {
		s := services[rng.IntN(len(services))]
		lat := s.mean * (0.5 + rng.ExpFloat64())
		fmt.Fprintf(&sb, "%s\t%012.5f\n", s.name, lat)
	}
	if err := cluster.WriteFile("/logs/byservice", []byte(sb.String())); err != nil {
		log.Fatal(err)
	}
	cluster.ResetMetrics()

	rep, err := cluster.RunGrouped(earl.Mean(), earl.TabKV, "/logs/byservice", earl.Options{
		Sigma: 0.05, Seed: 54,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := cluster.Metrics()

	fmt.Printf("per-service mean latency with 5%% error bounds (one sampling job, %d of %d records):\n",
		rep.SampleSize, n)
	for _, k := range rep.SortedGroupKeys() {
		g := rep.Groups[k]
		fmt.Printf("  %-9s %9.2f ms  (cv %.3f, %5d samples)\n", k, g.Estimate, g.CV, g.SampleSize)
	}
	fmt.Printf("converged=%v in %d iteration(s); %.2f MB read of %.2f MB input\n",
		rep.Converged, rep.Iterations, float64(m.BytesRead)/(1<<20), float64(sb.Len())/(1<<20))
}
