// Command earld is the EARL approximate-query daemon: one simulated
// cluster served to many concurrent clients over an HTTP JSON API, with
// admission control, shared maintained queries, and a result cache that
// any write to a file invalidates (see internal/serve for the design).
//
//	earld -addr :8080 -max-inflight 4 -queue 64
//
// A quick session with curl (an /append answers with the file's new
// size, {"size":N}):
//
//	curl -X POST localhost:8080/data \
//	     -d '{"path":"/t/latency","values":[12.1,14.2,13.7,15.9]}'
//	curl -X POST localhost:8080/query -d '{"stats":["mean"],"path":"/t/latency"}'
//	curl -X POST localhost:8080/watch -d '{"stats":["p99"],"path":"/t/latency"}'
//	curl -X POST localhost:8080/append -d '{"path":"/t/latency","values":[99.5]}'
//	curl localhost:8080/watch/w1
//	curl localhost:8080/metrics
//
// Query bodies are the engine-wide canonical plan spec: a stats list
// computes several statistics in one shared sampling pass (one report
// per statistic), and filter/derive/by are the σ/π/γ query-plan
// expressions — the filter is pushed below sampling, so sample sizing
// and the reported confidence intervals are relative to the filtered
// subpopulation. Grouped queries ("by") watch per-group aggregates —
// over "key\tvalue" records for by:"key", or bucketed by a numeric
// expression. Everything flows through the same dedup registry and
// result cache as scalar queries, and a body field outside the plan spec
// is a 400 that names it — "parallelism" too: the worker-pool size
// decides no bit of an answer, so it is the server's, not the client's:
//
//	curl -X POST localhost:8080/query \
//	     -d '{"stats":["mean","p50","p95","count"],"path":"/t/latency"}'
//	curl -X POST localhost:8080/query \
//	     -d '{"stats":["mean"],"path":"/t/latency","filter":"v > 50","derive":"log(v)"}'
//	curl -X POST localhost:8080/watch \
//	     -d '{"stats":["mean"],"path":"/t/latency","by":"floor(v / 25)"}'
//	curl -X POST localhost:8080/watch -d '{"stats":["mean"],"by":"key","path":"/t/kv"}'
//
// The optional -demo-records flag preloads a Gaussian dataset at
// /demo/gaussian so the API is immediately queryable.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds the cluster and server and serves until the listener
// fails. ready, when non-nil, receives the bound address once the
// listener is up (the smoke test uses it; main passes nil).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("earld", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		inflight = fs.Int("max-inflight", 4, "queries executing concurrently")
		queue    = fs.Int("queue", 64, "queued queries beyond max-inflight before rejecting")
		timeout  = fs.Duration("query-timeout", 60*time.Second, "per-query deadline (queueing + execution)")
		watches  = fs.Int("max-watches", 256, "distinct maintained queries held at once")
		idleTTL  = fs.Duration("watch-idle-ttl", 15*time.Minute, "idle watches past this are evictable when the registry is full")
		nodes    = fs.Int("nodes", 5, "simulated cluster size")
		seed     = fs.Uint64("seed", 1, "cluster seed")
		cacheB   = fs.Int64("cache-bytes", 0, "scan cache budget in bytes for decoded blocks no run holds, their memoized filter selections included (0 = default 256 MiB)")
		demoN    = fs.Int("demo-records", 0, "preload /demo/gaussian with this many records (0 = none)")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	env, err := core.NewEnv(core.EnvConfig{DataNodes: *nodes, Seed: *seed, CacheBytes: *cacheB})
	if err != nil {
		return err
	}
	srv, err := serve.New(env, serve.Config{
		MaxInFlight:  *inflight,
		MaxQueue:     *queue,
		QueryTimeout: *timeout,
		MaxWatches:   *watches,
		WatchIdleTTL: *idleTTL,
	})
	if err != nil {
		return err
	}
	if *demoN > 0 {
		xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: *demoN, Seed: *seed + 1}.Generate()
		if err != nil {
			return err
		}
		if err := env.FS.WriteFile("/demo/gaussian", workload.EncodeLinesFixed(xs)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "preloaded /demo/gaussian with %d records\n", *demoN)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "earld listening on %s (max-inflight=%d queue=%d nodes=%d)\n",
		ln.Addr(), *inflight, *queue, *nodes)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return http.Serve(ln, srv.Handler())
}
