package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/plan"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// TestQueryCostUnderOverlap: an execution is billed what it did, not
// what ran beside it. K one-shots over K files run at once, slowed
// replica reads on every node keeping them in flight together, beside a
// watch refresh over a file of its own. Each one-shot's Cost must equal,
// field by field, the cluster delta of the same query run alone on a
// fresh, identically built server; the costs and the refresh's must sum
// to the cluster delta; and /metrics' PerQuery must bill each key its
// solo cost — the watch's its creation plus its one refresh.
func TestQueryCostUnderOverlap(t *testing.T) {
	const (
		K = 4
		n = 10_000
	)
	ctx := context.Background()
	oneShot := func(i int) QuerySpec {
		return QuerySpec{Spec: plan.Spec{Path: fmt.Sprintf("/t/f%d", i), Stats: []string{"mean"}, Sigma: 0.05, Seed: 5}}
	}
	watch := QuerySpec{Spec: plan.Spec{Path: "/t/w", Stats: []string{"mean"}, Sigma: 0.05, Seed: 5}}
	encode := func(n int, seed uint64) []byte {
		xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return workload.EncodeLinesFixed(xs)
	}
	appended := encode(n/4, 99)
	build := func() (*Server, *core.Env) {
		env, err := core.NewEnv(core.EnvConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(env, Config{MaxInFlight: K + 1, MaxQueue: 4 * K})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= K; i++ {
			path := watch.Path
			if i < K {
				path = oneShot(i).Path
			}
			if err := env.FS.WriteFile(path, encode(n, uint64(10+i))); err != nil {
				t.Fatal(err)
			}
		}
		env.FS.SetFaultPlan(&dfs.FaultPlan{SlowNodes: []int{0, 1, 2, 3, 4}, SlowDelay: time.Microsecond})
		env.Metrics.Reset()
		return s, env
	}
	// delta runs fn and returns the cluster's delta over it.
	delta := func(env *core.Env, fn func()) simcost.Snapshot {
		before := env.Metrics.Snapshot()
		fn()
		return env.Metrics.Snapshot().Sub(before)
	}

	solo := make([]simcost.Snapshot, K)
	for i := range solo {
		s, env := build()
		solo[i] = delta(env, func() {
			if _, err := s.Query(ctx, oneShot(i)); err != nil {
				t.Fatal(err)
			}
		})
	}
	var soloCreate, soloRefresh simcost.Snapshot
	{
		s, env := build()
		var id string
		soloCreate = delta(env, func() {
			info, _, err := s.OpenWatch(ctx, watch)
			if err != nil {
				t.Fatal(err)
			}
			id = info.ID
		})
		if _, err := s.Append(watch.Path, appended); err != nil {
			t.Fatal(err)
		}
		soloRefresh = delta(env, func() {
			if _, err := s.WatchReport(ctx, id); err != nil {
				t.Fatal(err)
			}
		})
		if soloRefresh.Refreshes != 1 {
			t.Fatalf("solo refresh charged %d refreshes, want 1", soloRefresh.Refreshes)
		}
	}

	s, env := build()
	info, _, err := s.OpenWatch(ctx, watch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(watch.Path, appended); err != nil {
		t.Fatal(err)
	}
	results := make([]QueryResult, K)
	errs := make([]error, K+1)
	cluster := delta(env, func() {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i <= K; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if i == K {
					_, errs[i] = s.WatchReport(ctx, info.ID)
					return
				}
				results[i], errs[i] = s.Query(ctx, oneShot(i))
			}()
		}
		close(start)
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	sum := soloRefresh
	for i, res := range results {
		if res.Cached {
			t.Fatalf("query %d was a cache hit", i)
		}
		if res.Cost != solo[i] {
			t.Errorf("query %d under overlap billed\n  %v\nalone it costs\n  %v", i, res.Cost, solo[i])
		}
		sum = sum.Add(res.Cost)
	}
	if sum != cluster {
		t.Errorf("the executions' costs sum to\n  %v\nthe cluster's delta is\n  %v", sum, cluster)
	}

	per := s.Metrics().PerQuery
	for i := range results {
		q, err := oneShot(i).normalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := per[q.key()]; got != (QueryCost{Count: 1, Cost: solo[i]}) {
			t.Errorf("/metrics bills query %d %+v, want one execution of %v", i, got, solo[i])
		}
	}
	w, err := watch.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := per[w.key()], (QueryCost{Count: 2, Cost: soloCreate.Add(soloRefresh)}); got != want {
		t.Errorf("/metrics bills the watch %+v, want its creation and one refresh, %+v", got, want)
	}
}
