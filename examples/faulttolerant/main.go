// Command faulttolerant demonstrates §3.4: on a cluster losing machines
// mid-job, stock Hadoop restarts tasks (or fails once replicas run out),
// while EARL simply finishes on the surviving sample and reports the
// accuracy it actually achieved — no task restarts needed.
//
// The run kills 2 of 5 machines while the job streams: 1 MiB blocks
// give the file four splits, so the job's four mappers land on nodes 1
// to 4 (its reducer takes node 0), and σ = 1% keeps them drawing batch
// after batch, long enough for the killer to see the job placed. The
// killer is a goroutine polling the cost counters, so it needs a second
// CPU to act while the job runs: at GOMAXPROCS=1 the job ends before it
// is scheduled, and the run reports no mapper lost.
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/earl"
	"repro/internal/workload"
)

func main() {
	cluster, err := earl.NewCluster(earl.ClusterConfig{
		DataNodes:   5,
		Replication: 2,
		BlockSize:   1 << 20,
		Seed:        31,
	})
	if err != nil {
		log.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: 400_000, Seed: 32}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WriteValues("/data/sensor", xs); err != nil {
		log.Fatal(err)
	}

	exact, _, err := cluster.RunExact(earl.Mean(), "/data/sensor")
	if err != nil {
		log.Fatal(err)
	}

	// Kill machines once the sampled job is running: Place charges the
	// job's map tasks only after it has placed them, and the count stands
	// at the exact pass's until then.
	placed := cluster.Metrics().MapTasks
	armed := make(chan struct{})
	go func() {
		close(armed)
		for cluster.Metrics().MapTasks == placed {
			runtime.Gosched()
		}
		if err := cluster.KillNode(3); err != nil {
			log.Print(err)
		}
		if err := cluster.KillNode(4); err != nil {
			log.Print(err)
		}
		fmt.Println("!! killed nodes 3 and 4 after the job was placed")
	}()

	<-armed
	rep, err := cluster.Run(earl.Mean(), "/data/sensor", earl.Options{Sigma: 0.01, Seed: 33})
	if err != nil {
		log.Fatalf("EARL should survive node loss, got: %v", err)
	}

	fmt.Printf("early result despite failures : %.4f (cv %.3f)\n", rep.Estimate, rep.CV)
	fmt.Printf("exact (pre-failure) answer    : %.4f\n", exact)
	fmt.Printf("relative error                : %.3f%%\n", 100*abs(rep.Estimate-exact)/exact)
	fmt.Printf("mapper tasks lost             : %d (not restarted — §3.4)\n", rep.FailedMaps)
	fmt.Printf("converged to σ=1%%             : %v\n", rep.Converged)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
