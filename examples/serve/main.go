// Command serve is earld's load generator: it boots the approximate-query
// server in-process, points K concurrent HTTP clients at one identical
// maintained query, and streams appends at the watched file. The point it
// demonstrates is the shared-watch registry's economics: K clients
// watching the same query cost ONE delta refresh per append — o(K·N)
// records read — and every client reads the bit-identical report,
// because they all subscribe to the same underlying live.Query.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	clients  = 8       // K concurrent clients, all issuing the same watch
	initialN = 400_000 // records at day zero
	batchN   = 100_000 // records per appended batch
	batches  = 4
)

type watchResp struct {
	ID        string `json:"id"`
	Shared    bool   `json:"shared"`
	Refreshes int    `json:"refreshes"`
	Report    struct {
		Estimate   float64
		CV         float64
		SampleSize int
	} `json:"report"`
}

func main() {
	env, err := core.NewEnv(core.EnvConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(env, serve.Config{MaxInFlight: 4, MaxQueue: 2 * clients})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String()

	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: initialN, Seed: 2}.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := env.FS.WriteFile("/stream/metrics", workload.EncodeLinesFixed(xs)); err != nil {
		log.Fatal(err)
	}
	env.Metrics.Reset()

	// K clients open the identical maintained query concurrently. The
	// registry runs it once; the rest subscribe.
	spec := `{"stats":["mean"],"path":"/stream/metrics","sigma":0.05,"seed":3}`
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var w watchResp
			postJSON(base+"/watch", spec, &w)
			ids[c] = w.ID
		}(c)
	}
	wg.Wait()
	after := env.Metrics.Snapshot()
	fmt.Printf("%d clients opened the same watch: %d initial run(s), %d records read (not %d×)\n",
		clients, after.JobStartups, after.RecordsRead, clients)

	// Stream appends; after each, every client polls the watch.
	total := initialN
	for b := 1; b <= batches; b++ {
		delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: batchN, Seed: uint64(10 + b)}.Generate()
		if err != nil {
			log.Fatal(err)
		}
		postJSON(base+"/append", encodeIngest("/stream/metrics", delta), nil)
		total += batchN

		before := env.Metrics.Snapshot()
		reports := make([]watchResp, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				getJSON(base+"/watch/"+ids[c], &reports[c])
			}(c)
		}
		wg.Wait()
		cost := env.Metrics.Snapshot().Sub(before)

		for c := 1; c < clients; c++ {
			if reports[c].Report != reports[0].Report {
				log.Fatalf("client %d read a different report: %+v vs %+v", c, reports[c].Report, reports[0].Report)
			}
		}
		fmt.Printf("batch %d: +%d records → %d clients polled, %d refresh(es), %d records read "+
			"(a from-scratch run per client would touch ~%d)\n",
			b, batchN, clients, cost.Refreshes, cost.RecordsRead, clients*reports[0].Report.SampleSize)
		fmt.Printf("         shared answer %.4f (cv %.4f) from a %d-record sample of %d\n",
			reports[0].Report.Estimate, reports[0].Report.CV, reports[0].Report.SampleSize, total)
	}

	m := srv.Metrics()
	fmt.Printf("\nserver totals: %d watches opened (%d deduped), %d refreshes served for %d appends, "+
		"%d one-shot queries\n",
		m.Server.WatchesOpened, m.Server.WatchesShared, m.Server.RefreshesServed,
		m.Server.Appends, m.Server.Queries)
	if m.Server.RefreshesServed != batches {
		log.Fatalf("expected exactly %d refreshes (one per append), got %d", batches, m.Server.RefreshesServed)
	}
}

func encodeIngest(path string, values []float64) string {
	b, err := json.Marshal(map[string]any{"path": path, "values": values})
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}

func postJSON(url, body string, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: status %d: %v", url, resp.StatusCode, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("GET %s: status %d: %v", url, resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
