package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/workload"
)

// newTestServer builds a server over a fresh cluster preloaded with n
// Gaussian records at path.
func newTestServer(t *testing.T, cfg Config, path string, n int) (*Server, *core.Env) {
	t.Helper()
	env, err := core.NewEnv(core.EnvConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: 2}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile(path, workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	env.Metrics.Reset()
	return s, env
}

// TestWatchDedupSharesOneQuery is the registry's core guarantee: two
// identical maintained queries share one underlying live.Query — one
// initial run, and after an append one refresh whose cost is counted
// once, whether the append came through the server or straight through
// env.FS.
func TestWatchDedupSharesOneQuery(t *testing.T) {
	s, env := newTestServer(t, Config{}, "/t/data", 60_000)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/data", Stats: []string{"mean"}, Sigma: 0.05, Seed: 3}}

	a, sharedA, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sharedA {
		t.Fatal("first open reported shared")
	}
	b, sharedB, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sharedB {
		t.Fatal("second identical open did not dedupe")
	}
	if a.ID != b.ID {
		t.Fatalf("identical watches got different ids: %s vs %s", a.ID, b.ID)
	}
	if got := env.Metrics.Snapshot().JobStartups; got != 1 {
		t.Fatalf("two identical watches launched %d jobs, want 1", got)
	}

	delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: 20_000, Seed: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("/t/data", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}

	before := env.Metrics.Snapshot()
	ra, err := s.WatchReport(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.WatchReport(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	cost := env.Metrics.Snapshot().Sub(before)
	if cost.Refreshes != 1 {
		t.Fatalf("two subscribers after one append cost %d refreshes, want 1", cost.Refreshes)
	}
	if ra.Report != rb.Report {
		t.Fatalf("subscribers read different reports:\n%+v\n%+v", ra.Report, rb.Report)
	}
	if ra.Refreshes != 1 {
		t.Fatalf("underlying query refreshed %d times, want 1", ra.Refreshes)
	}

	// Another writer on the same Env, bypassing the server, stales the
	// watch all the same.
	if err := env.FS.Append("/t/data", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	served := s.Stats().RefreshesServed
	if ra, err = s.WatchReport(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if rb, err = s.WatchReport(ctx, b.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RefreshesServed - served; got != 1 {
		t.Fatalf("two subscribers after an append through env.FS were served %d refreshes, want 1", got)
	}
	if ra.Refreshes != 2 || ra.Report != rb.Report {
		t.Fatalf("after an append through env.FS: %d refreshes, reports\n%+v\n%+v", ra.Refreshes, ra.Report, rb.Report)
	}
}

// TestConcurrentClientsOneRefreshPerAppend is the load-generator
// acceptance test: K ≥ 8 concurrent clients issue the identical
// maintained query; per append the registry performs exactly one
// underlying refresh (simcost.Refreshes), the poll phase reads o(K·N)
// records (simcost.RecordsRead), and every client receives the
// bit-identical report — at any GOMAXPROCS, which sizes the server's
// worker pools (0 keeps the process's own, all cores by default).
func TestConcurrentClientsOneRefreshPerAppend(t *testing.T) {
	const (
		K        = 8
		initialN = 120_000
		batchN   = 30_000
		batches  = 3
	)
	type batchReport struct {
		Estimate   float64
		CV         float64
		SampleSize int
	}
	run := func(par int) []batchReport {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
		s, env := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 4 * K}, "/t/stream", initialN)
		ctx := context.Background()
		spec := QuerySpec{Spec: plan.Spec{Path: "/t/stream", Stats: []string{"mean"}, Sigma: 0.05, Seed: 5}}

		ids := make([]string, K)
		var wg sync.WaitGroup
		errs := make(chan error, K)
		for c := 0; c < K; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				info, _, err := s.OpenWatch(ctx, spec)
				if err != nil {
					errs <- err
					return
				}
				ids[c] = info.ID
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if got := env.Metrics.Snapshot().JobStartups; got != 1 {
			t.Fatalf("par=%d: %d concurrent identical watches launched %d jobs, want 1", par, K, got)
		}

		var out []batchReport
		for b := 1; b <= batches; b++ {
			delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: batchN, Seed: uint64(40 + b)}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append("/t/stream", workload.EncodeLinesFixed(delta)); err != nil {
				t.Fatal(err)
			}
			before := env.Metrics.Snapshot()
			reports := make([]WatchInfo, K)
			perr := make(chan error, K)
			for c := 0; c < K; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					info, err := s.WatchReport(ctx, ids[c])
					if err != nil {
						perr <- err
						return
					}
					reports[c] = info
				}(c)
			}
			wg.Wait()
			close(perr)
			for err := range perr {
				t.Fatal(err)
			}
			cost := env.Metrics.Snapshot().Sub(before)
			if cost.Refreshes != 1 {
				t.Fatalf("par=%d batch %d: %d clients cost %d refreshes, want exactly 1", par, b, K, cost.Refreshes)
			}
			// o(K·N): the poll phase may read the sampled delta once, never
			// anything proportional to K clients × N records.
			if cost.RecordsRead > int64(batchN) {
				t.Fatalf("par=%d batch %d: poll phase read %d records (> one batch of %d); dedup is not saving scans",
					par, b, cost.RecordsRead, batchN)
			}
			for c := 1; c < K; c++ {
				if reports[c].Report != reports[0].Report {
					t.Fatalf("par=%d batch %d: client %d read a different report:\n%+v\n%+v",
						par, b, c, reports[c].Report, reports[0].Report)
				}
			}
			r0 := reports[0].Report
			out = append(out, batchReport{Estimate: r0.Estimate, CV: r0.CV, SampleSize: r0.SampleSize})
		}
		return out
	}

	base := run(1)
	for _, par := range []int{4, 0} {
		got := run(par)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d diverged from sequential at batch %d:\n%+v\n%+v", par, i+1, got[i], base[i])
			}
		}
	}
}

// TestAdmissionControl drives the acquire path directly: with every
// execution slot held and the queue full, new arrivals are rejected
// with ErrOverloaded, and queued callers honour cancellation.
func TestAdmissionControl(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1}, "/t/adm", 4_000)

	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One caller fits in the queue and waits.
	queuedCtx, cancelQueued := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		rel, err := s.acquire(queuedCtx)
		if err == nil {
			rel()
		}
		queuedErr <- err
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	// The next arrival overflows the queue: immediate rejection.
	if _, err := s.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded with full queue, got %v", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.Stats().Rejected)
	}

	// Cancelling the queued caller abandons its admission.
	cancelQueued()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued caller got %v, want context.Canceled", err)
	}
	if s.Stats().Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", s.Stats().Expired)
	}

	// Releasing the slot lets a fresh caller straight in.
	release()
	rel, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryCacheInvalidatedByAppend: identical one-shot queries hit the
// cache until the file is written — by the server's Append, or by an
// append or a rewrite straight through env.FS — and a miss answers for
// the file as it now is.
func TestQueryCacheInvalidatedByAppend(t *testing.T) {
	s, env := newTestServer(t, Config{}, "/t/cache", 50_000)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/cache", Stats: []string{"mean"}, Seed: 6}}

	first, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query claimed a cache hit")
	}
	jobsAfterFirst := env.Metrics.Snapshot().JobStartups

	second, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical repeat query missed the cache")
	}
	if second.Report != first.Report {
		t.Fatalf("cache returned a different report:\n%+v\n%+v", second.Report, first.Report)
	}
	if got := env.Metrics.Snapshot().JobStartups; got != jobsAfterFirst {
		t.Fatalf("cache hit launched cluster work (%d → %d job startups)", jobsAfterFirst, got)
	}

	delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: 20_000, Seed: 7}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("/t/cache", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	third, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("query after append served stale cached result")
	}

	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"append", func() error { return env.FS.Append("/t/cache", workload.EncodeLinesFixed(delta)) }},
		{"rewrite", func() error { return env.FS.WriteFile("/t/cache", workload.EncodeLinesFixed(delta[:5_000])) }},
	} {
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		got, err := s.Query(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Fatalf("query after an %s through env.FS served the stale cached result", w.name)
		}
		want, err := core.RunPlan(env, spec.Spec, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Report != want.Reports[0] {
			t.Fatalf("query after an %s through env.FS does not answer for the new file:\n got %+v\nwant %+v", w.name, got.Report, want.Reports[0])
		}
	}
	if s.Stats().CacheHits != 1 {
		t.Fatalf("cacheHits = %d, want 1", s.Stats().CacheHits)
	}
}

// TestWatchReportAsksTheWatch: the watch decides its own staleness. With
// every admission slot held, a report on an unchanged watch answers at
// once — it takes no slot. Once the slots are free, an append straight
// to env.FS costs the next report exactly one served refresh, and the
// report after that none.
func TestWatchReportAsksTheWatch(t *testing.T) {
	s, env := newTestServer(t, Config{MaxInFlight: 2}, "/t/stale", 40_000)
	ctx := context.Background()
	info, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/stale", Stats: []string{"mean"}, Sigma: 0.05, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var releases []func()
	for range s.cfg.MaxInFlight {
		release, err := s.acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	held, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := s.WatchReport(held, info.ID); err != nil {
		t.Fatalf("report on an unchanged watch with every slot held: %v", err)
	}
	if st := s.Stats(); st.Queued != 0 || st.Expired != 0 || st.RefreshesServed != 0 {
		t.Fatalf("report on an unchanged watch waited for a slot: %+v", st)
	}
	for _, release := range releases {
		release()
	}

	delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: 5_000, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.Append("/t/stale", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 0} {
		before := s.Stats().RefreshesServed
		if _, err := s.WatchReport(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().RefreshesServed - before; got != want {
			t.Fatalf("report %d after an out-of-band append served %d refreshes, want %d", i+1, got, want)
		}
	}
}

// TestConcurrentOutOfBandWriter: one goroutine appends straight to
// env.FS, unseen by the server, while K clients poll Query and
// WatchReport on one spec. At a σ no sample of this small file can meet
// for mean, the spec is answered exactly (UsedFull), so every answer's
// count must be the record count of a committed file state; once the
// writer stops, the next one-shot and
// the next watch report must both be the final count, and a repeat
// one-shot on the now quiet file a cache hit. Under -race this also
// checks the cache and the registry against a writer they do not see.
func TestConcurrentOutOfBandWriter(t *testing.T) {
	const (
		K        = 4
		path     = "/t/oob"
		initialN = 2_000
		batchN   = 500
		batches  = 20
		finalN   = initialN + batches*batchN
	)
	s, env := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 4 * K}, path, initialN)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: path, Stats: []string{"count", "mean"}, Sigma: 0.001, Seed: 9}}
	committed := func(what string, r core.Report) {
		n := int(r.Estimate)
		if !r.UsedFull || float64(n) != r.Estimate || n < initialN || n > finalN || (n-initialN)%batchN != 0 {
			t.Errorf("%s: %+v is not the exact count of a committed file state", what, r)
		}
	}
	w, _, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	committed("open", w.Report)
	data := make([][]byte, batches)
	for i := range data {
		xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: batchN, Seed: uint64(60 + i)}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		data[i] = workload.EncodeLinesFixed(xs)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + K)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, batch := range data {
			if err := env.FS.Append(path, batch); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for c := 0; c < K; c++ {
		go func() {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-done:
					last = true
				default:
				}
				res, err := s.Query(ctx, spec)
				if err != nil {
					t.Error(err)
					return
				}
				committed("one-shot", res.Report)
				info, err := s.WatchReport(ctx, w.ID)
				if err != nil {
					t.Error(err)
					return
				}
				committed("watch", info.Report)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	res, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.WatchReport(ctx, w.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Estimate != finalN || info.Report.Estimate != finalN {
		t.Fatalf("after the writer stopped: one-shot %g, watch %g, want %d", res.Report.Estimate, info.Report.Estimate, finalN)
	}
	again, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Report != res.Report {
		t.Fatalf("repeat one-shot on a quiet file: cached=%v, %+v vs %+v", again.Cached, again.Report, res.Report)
	}
}

// TestCloseWatchLastSubscriberCloses verifies subscription counting:
// the underlying query survives until the last subscriber leaves.
func TestCloseWatchLastSubscriberCloses(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/t/close", 40_000)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/close", Stats: []string{"mean"}, Seed: 8}}

	a, _, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sub == "" || b2.Sub == "" || a.Sub == b2.Sub {
		t.Fatalf("subscription tokens not distinct: %q vs %q", a.Sub, b2.Sub)
	}
	if err := s.CloseWatch(a.ID, a.Sub); err != nil {
		t.Fatal(err)
	}
	// A duplicate DELETE (network retry) must not touch b2's subscription.
	if err := s.CloseWatch(a.ID, a.Sub); err != nil {
		t.Fatal(err)
	}
	// One subscriber remains: the watch still answers.
	if _, err := s.WatchReport(ctx, a.ID); err != nil {
		t.Fatalf("watch died with a live subscriber: %v", err)
	}
	if err := s.CloseWatch(a.ID, b2.Sub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WatchReport(ctx, a.ID); !errors.Is(err, ErrUnknownWatch) {
		t.Fatalf("closed watch still answers: %v", err)
	}
	// Reopening after full close builds a fresh query under the same spec.
	b, shared, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("reopen after close claimed to share a closed query")
	}
	if b.ID == a.ID {
		t.Fatal("reopened watch reused the closed id")
	}
}

// TestRewriteRebuildsWatches: replacing a watched file's contents must
// NOT kill its watches. The next report pays one refresh that rebuilds
// the maintained state from scratch — bit-identical to a fresh watch
// opened over the rewritten contents — and cached one-shot results are
// invalidated.
func TestRewriteRebuildsWatches(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/t/rw", 50_000)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/rw", Stats: []string{"mean"}, Seed: 11}}

	w, _, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, spec); err != nil {
		t.Fatal(err)
	}

	smaller, err := workload.NumericSpec{Dist: workload.Uniform, N: 10_000, Seed: 12}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rewrite("/t/rw", workload.EncodeLinesFixed(smaller)); err != nil {
		t.Fatal(err)
	}

	// The watch survives and its next report reflects ONLY the new data.
	got, err := s.WatchReport(ctx, w.ID)
	if err != nil {
		t.Fatalf("watch died on a rewrite of its path: %v", err)
	}
	if got.ID != w.ID {
		t.Fatalf("rewrite replaced the watch id: %q vs %q", got.ID, w.ID)
	}
	// A brand-new server over the rewritten contents gives the reference
	// answer a fresh watch would.
	s2, _ := newTestServer(t, Config{}, "/t/rw", 0)
	if _, err := s2.Rewrite("/t/rw", workload.EncodeLinesFixed(smaller)); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := s2.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.Estimate != fresh.Report.Estimate || got.Report.SampleSize != fresh.Report.SampleSize ||
		got.Report.CILo != fresh.Report.CILo || got.Report.CIHi != fresh.Report.CIHi {
		t.Fatalf("rebuilt watch differs from a fresh one:\n got %+v\nwant %+v", got.Report, fresh.Report)
	}

	res, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("query after rewrite served the pre-rewrite cached result")
	}
	// Re-opening dedupes onto the surviving (rebuilt) watch.
	w2, shared, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !shared || w2.ID != w.ID {
		t.Fatalf("rewrite should keep the watch entry alive: %+v", w2)
	}
}

// TestWatchRegistryCapAndIdleEviction: a full registry refuses new
// distinct watches with ErrOverloaded, but idle entries (past the TTL)
// are evicted on demand so the cap is recoverable without a restart.
func TestWatchRegistryCapAndIdleEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxWatches: 2, WatchIdleTTL: time.Hour}, "/t/cap", 40_000)
	ctx := context.Background()

	a, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/cap", Stats: []string{"mean"}, Seed: 20}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/cap", Stats: []string{"median"}, Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	// Registry full, everything fresh: a new distinct watch is refused…
	if _, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/cap", Stats: []string{"sum"}, Seed: 22}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full registry accepted a new watch: %v", err)
	}
	// …but subscribing to an existing watch still dedupes freely.
	if _, shared, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/cap", Stats: []string{"mean"}, Seed: 20}}); err != nil || !shared {
		t.Fatalf("dedup blocked by the cap: shared=%v err=%v", shared, err)
	}

	// Age one entry past the TTL; the next open evicts it and succeeds.
	s.mu.Lock()
	s.byID[b.ID].lastTouch.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	s.mu.Unlock()
	c, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/cap", Stats: []string{"sum"}, Seed: 22}})
	if err != nil {
		t.Fatalf("idle eviction did not free a slot: %v", err)
	}
	if _, err := s.WatchReport(ctx, b.ID); !errors.Is(err, ErrUnknownWatch) {
		t.Fatalf("evicted watch still answers: %v", err)
	}
	// The fresh entries survived.
	if _, err := s.WatchReport(ctx, a.ID); err != nil {
		t.Fatalf("fresh watch evicted: %v", err)
	}
	if _, err := s.WatchReport(ctx, c.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSpecValidation covers the client-error surface.
func TestSpecValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/t/val", 4_000)
	ctx := context.Background()
	for _, bad := range []QuerySpec{
		{Spec: plan.Spec{Path: "/t/val", Stats: []string{"nope"}}},
		{Spec: plan.Spec{Path: "/t/val", Stats: []string{"p200"}}}, // out-of-range quantile is a client error too
		{Spec: plan.Spec{Path: "/t/val", Stats: []string{"qnan"}}}, // ParseFloat accepts "nan"; must not reach the engine
		{Spec: plan.Spec{Path: "/t/val", Stats: []string{"pnan"}}},
		{Spec: plan.Spec{Stats: []string{"mean"}}},
		{Spec: plan.Spec{Path: "/t/val", Sigma: -1}},
		{Spec: plan.Spec{Path: "/t/val", Sampler: "mid-map"}},
		{Spec: plan.Spec{Path: "/t/val", Filter: "v +"}},   // malformed expression
		{Spec: plan.Spec{Path: "/t/val", Filter: "v + 1"}}, // filter must be boolean
		{Spec: plan.Spec{Path: "/t/val", Derive: "v > 1"}}, // derive must be numeric
	} {
		if _, err := s.Query(ctx, bad); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
	// Quantile forms parse (through the shared normalization path).
	for _, name := range []string{"p99", "p50", "q0.25"} {
		if _, err := (QuerySpec{Spec: plan.Spec{Path: "/x", Stats: []string{name}}}).normalize(); err != nil {
			t.Errorf("statistic %q rejected: %v", name, err)
		}
	}
	// Grouped one-shot works over kv data.
	kv := []byte("a\t1\na\t2\nb\t5\nb\t6\n")
	for i := 0; i < 11; i++ {
		kv = append(kv, kv...) // 4·2^11 records
	}
	if err := s.Env().FS.WriteFile("/t/kv", kv); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/kv", Stats: []string{"mean"}, GroupBy: "key", Sigma: 0.2, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups == nil || len(res.Groups.Groups) != 2 {
		t.Fatalf("grouped query returned %+v", res.Groups)
	}
}

// TestOpenWatchConcurrentCreation: many concurrent first-opens of the
// same spec race the registry; exactly one creation run must happen.
func TestOpenWatchConcurrentCreation(t *testing.T) {
	s, env := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 64}, "/t/race", 60_000)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/race", Stats: []string{"mean"}, Seed: 10}}

	const K = 12
	var wg sync.WaitGroup
	ids := make([]string, K)
	errs := make(chan error, K)
	for c := 0; c < K; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			info, _, err := s.OpenWatch(ctx, spec)
			if err != nil {
				errs <- fmt.Errorf("open[%d]: %w", c, err)
				return
			}
			ids[c] = info.ID
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := 1; c < K; c++ {
		if ids[c] != ids[0] {
			t.Fatalf("racing opens produced distinct watches: %v", ids)
		}
	}
	if got := env.Metrics.Snapshot().JobStartups; got != 1 {
		t.Fatalf("%d racing opens launched %d initial runs, want 1", K, got)
	}
	if s.Stats().WatchesShared != K-1 {
		t.Fatalf("watchesShared = %d, want %d", s.Stats().WatchesShared, K-1)
	}
}

// TestGroupedWatchDedupBitIdentical is the grouped-watch acceptance
// test: K=8 subscribers open the identical grouped maintained query
// through the shared registry — one creation run; per append exactly one
// underlying delta refresh (simcost.Refreshes); and every subscriber
// reads the bit-identical grouped report, including a group that first
// appears in appended data.
func TestGroupedWatchDedupBitIdentical(t *testing.T) {
	const K = 8
	kvBatch := func(keys []string, per int, seed uint64, shift float64) []byte {
		xs, err := workload.NumericSpec{Dist: workload.Uniform, N: per * len(keys), Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		i := 0
		for _, k := range keys {
			for j := 0; j < per; j++ {
				fmt.Fprintf(&sb, "%s\t%012.6f\n", k, xs[i]+shift)
				i++
			}
		}
		return []byte(sb.String())
	}

	env, err := core.NewEnv(core.EnvConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(env, Config{MaxInFlight: 4, MaxQueue: 4 * K})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/t/kv", kvBatch([]string{"a", "b"}, 25_000, 2, 0)); err != nil {
		t.Fatal(err)
	}
	env.Metrics.Reset()
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/kv", Stats: []string{"mean"}, GroupBy: "key", Sigma: 0.08, Seed: 3}}

	ids := make([]string, K)
	var wg sync.WaitGroup
	errs := make(chan error, K)
	for c := 0; c < K; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			info, _, err := s.OpenWatch(ctx, spec)
			if err != nil {
				errs <- err
				return
			}
			ids[c] = info.ID
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := 1; c < K; c++ {
		if ids[c] != ids[0] {
			t.Fatalf("identical grouped watches got distinct ids: %v", ids)
		}
	}
	if got := env.Metrics.Snapshot().JobStartups; got != 1 {
		t.Fatalf("%d identical grouped watches launched %d initial runs, want 1", K, got)
	}

	// Two append cycles: more of "b", then a brand-new key "c".
	for b, batch := range [][]byte{
		kvBatch([]string{"b"}, 20_000, 4, 50),
		kvBatch([]string{"c"}, 20_000, 5, 200),
	} {
		if _, err := s.Append("/t/kv", batch); err != nil {
			t.Fatal(err)
		}
		before := env.Metrics.Snapshot()
		reports := make([]WatchInfo, K)
		perr := make(chan error, K)
		for c := 0; c < K; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				info, err := s.WatchReport(ctx, ids[c])
				if err != nil {
					perr <- err
					return
				}
				reports[c] = info
			}(c)
		}
		wg.Wait()
		close(perr)
		for err := range perr {
			t.Fatal(err)
		}
		cost := env.Metrics.Snapshot().Sub(before)
		if cost.Refreshes != 1 {
			t.Fatalf("append %d: %d grouped subscribers cost %d refreshes, want exactly 1", b, K, cost.Refreshes)
		}
		if reports[0].Groups == nil {
			t.Fatalf("append %d: grouped watch info carries no Groups: %+v", b, reports[0])
		}
		for c := 1; c < K; c++ {
			if !reflect.DeepEqual(reports[c].Groups, reports[0].Groups) {
				t.Fatalf("append %d: subscriber %d read a different grouped report:\n%+v\n%+v",
					b, c, reports[c].Groups, reports[0].Groups)
			}
		}
		if b == 1 {
			if _, ok := reports[0].Groups.Groups["c"]; !ok {
				t.Fatalf("group first appearing in appended data missing: %v", reports[0].Groups.SortedGroupKeys())
			}
		}
	}
}

// TestMultiStatQueryAndWatch covers the multi-statistic spec surface: a
// stats list answers one report per statistic from one shared pass, hits
// the cache on repeat, and a multi-stat watch refreshes every statistic.
func TestMultiStatQueryAndWatch(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/t/multi", 60_000)
	ctx := context.Background()

	res, err := s.Query(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"mean", "p95", "count"}, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 3 {
		t.Fatalf("multi-stat query returned %d reports, want 3", len(res.Reports))
	}
	if res.Report != res.Reports[0] {
		t.Fatalf("Report is not the first statistic: %+v vs %+v", res.Report, res.Reports[0])
	}
	if res.Reports[1].Job != "quantile-0.95" || res.Reports[2].Job != "count" {
		t.Fatalf("reports out of order: %s, %s", res.Reports[1].Job, res.Reports[2].Job)
	}
	again, err := s.Query(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"mean", "p95", "count"}, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !reflect.DeepEqual(again.Reports, res.Reports) {
		t.Fatalf("identical multi-stat repeat missed the cache: cached=%v", again.Cached)
	}

	// A multi-stat watch refreshes every statistic with one delta scan.
	w, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"mean", "p95"}, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := workload.NumericSpec{Dist: workload.Gaussian, N: 20_000, Seed: 7}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("/t/multi", workload.EncodeLinesFixed(delta)); err != nil {
		t.Fatal(err)
	}
	info, err := s.WatchReport(ctx, w.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Reports) != 2 {
		t.Fatalf("multi-stat watch info carries %d reports, want 2", len(info.Reports))
	}

	// Validation: grouped multi, and duplicates — including two
	// spellings of the same quantile — are client errors.
	for _, bad := range []QuerySpec{
		{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"mean", "p95"}, GroupBy: "key"}},
		{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"mean", "nope"}}},
		{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"mean", "mean"}}},
		{Spec: plan.Spec{Path: "/t/multi", Stats: []string{"p99.9", "q0.999"}}},
	} {
		if _, err := s.Query(ctx, bad); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}

	// normalize must not rewrite the caller's Stats slice in place.
	names := []string{"MEAN", "P95"}
	if _, err := s.Query(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/multi", Stats: names, Seed: 8}}); err != nil {
		t.Fatal(err)
	}
	if names[0] != "MEAN" || names[1] != "P95" {
		t.Fatalf("normalize mutated the caller's stats slice: %v", names)
	}
}

// TestSpecAliasKeysIdentical pins that two spellings of one query — a
// quantile's pNN and q0.NN names, or an expression's whitespace and
// parentheses — normalize to the SAME cache and dedup key, so their
// clients share watches and cache entries.
func TestSpecAliasKeysIdentical(t *testing.T) {
	key := func(q QuerySpec) string {
		t.Helper()
		n, err := q.normalize()
		if err != nil {
			t.Fatalf("normalize %+v: %v", q, err)
		}
		return n.key()
	}
	base := plan.Spec{Path: "/t/data", Sigma: 0.05, Seed: 3}
	// Two spellings of the same quantile canonicalize together.
	p50, q05 := base, base
	p50.Stats, q05.Stats = []string{"p50"}, []string{"q0.5"}
	if a, b := key(QuerySpec{Spec: p50}), key(QuerySpec{Spec: q05}); a != b {
		t.Fatalf("p50 vs q0.5 keys differ:\n%s\n%s", a, b)
	}
	// Expression whitespace canonicalizes away.
	f1, f2 := base, base
	f1.Filter, f2.Filter = "v>50&&v<90", "v > 50  &&  (v < 90)"
	if a, b := key(QuerySpec{Spec: f1}), key(QuerySpec{Spec: f2}); a != b {
		t.Fatalf("equivalent filter spellings key differently:\n%s\n%s", a, b)
	}
}

// TestPlanQueryOverServe runs σ/π/γ specs through the server surface: a
// pushed-down filter answers over the subpopulation (and caches), and a
// grouped-by-expression watch dedupes across equivalent spellings.
func TestPlanQueryOverServe(t *testing.T) {
	env, err := core.NewEnv(core.EnvConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 60_000, Seed: 2}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/t/u", workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	spec := QuerySpec{Spec: plan.Spec{Path: "/t/u", Stats: []string{"mean"}, Filter: "v > 50", Seed: 3}}
	res, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform[0,100) above 50 averages near 75; the unfiltered mean is 50.
	if res.Report.Estimate < 65 || res.Report.Estimate > 85 {
		t.Fatalf("filtered mean %.3f does not look like the v>50 subpopulation", res.Report.Estimate)
	}
	again, err := s.Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Report != res.Report {
		t.Fatalf("identical plan query missed the cache (cached=%v)", again.Cached)
	}

	a, _, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/u", Stats: []string{"mean"}, GroupBy: "floor(v/25)", Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	b, shared, err := s.OpenWatch(ctx, QuerySpec{Spec: plan.Spec{Path: "/t/u", Stats: []string{"mean"}, GroupBy: "floor(v / 25)", Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !shared || a.ID != b.ID {
		t.Fatalf("equivalent grouped plan spellings did not dedupe: %v vs %v (shared=%v)", a.ID, b.ID, shared)
	}
	if a.Groups == nil || len(a.Groups.Groups) != 4 {
		t.Fatalf("grouped plan watch returned %+v", a.Groups)
	}
}

// TestMetricsExposeScanCache pins the observability satellite: GET
// /metrics carries the decoded-block cache counters, including how many
// cold misses the persistent columnar sidecars served, and they move
// when queries run.
func TestMetricsExposeScanCache(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/t/scan", 60_000)
	rep := s.Metrics()
	if rep.Scan.MaxBytes <= 0 {
		t.Fatalf("scanCache.maxBytes = %d, want the configured budget", rep.Scan.MaxBytes)
	}
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/scan", Stats: []string{"mean"}, Seed: 11, Sampler: "post-map"}}
	if _, err := s.Query(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	rep = s.Metrics()
	if rep.Scan.Misses == 0 {
		t.Fatalf("scanCache counted no misses after a cold query: %+v", rep.Scan)
	}
	if rep.Scan.SidecarReads == 0 {
		t.Fatalf("cold post-map query read nothing from the sidecar: %+v", rep.Scan)
	}
	if rep.Scan.SidecarErrors != 0 {
		t.Fatalf("clean data produced %d sidecar errors", rep.Scan.SidecarErrors)
	}
}

// TestOneShotNeverBlends is TestConcurrentRewriteNeverBlends for
// one-shots: Query runs on one pinned commit, so a one-shot racing
// rewrites, and one racing appends, reports bit for bit what a query
// over one of the committed file states reports — never a sample drawn
// across two of them. Every query goes to a fresh Server over the shared
// cluster, so none is answered from the result cache. The expected
// reports come from a second cluster taken through the same commits
// with nothing running beside them.
func TestOneShotNeverBlends(t *testing.T) {
	const path = "/t/oneshot"
	gen := func(dist workload.Dist, n int, seed uint64) []byte {
		xs, err := workload.NumericSpec{Dist: dist, N: n, Seed: seed}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return workload.EncodeLinesFixed(xs)
	}
	oneShot := func(env *core.Env, spec QuerySpec) string {
		t.Helper()
		s, err := New(env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Query(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("a fresh server answered from its cache")
		}
		return fmt.Sprintf("%+v", res.Report)
	}
	for _, sampler := range []string{"pre-map", "post-map"} {
		spec := QuerySpec{Spec: plan.Spec{Path: path, Stats: []string{"mean"}, Seed: 23, Sampler: sampler}}
		// race runs one-shots beside mutate until mutate is done and a
		// query has run after it; every report must be in allowed.
		race := func(t *testing.T, env *core.Env, allowed map[string]int, mutate func()) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				mutate()
			}()
			last := -1
			for after := false; !after; {
				select {
				case <-done:
					after = true
				default:
				}
				rep := oneShot(env, spec)
				state, ok := allowed[rep]
				if !ok {
					t.Fatalf("a one-shot reported no committed state's answer: %s", rep)
				}
				if state < 0 {
					continue // the rewrites alternate: no order to hold
				}
				if state < last {
					t.Fatalf("a one-shot went back from state %d to state %d", last, state)
				}
				last = state
			}
			if pins := env.FS.JournalStats().Pins; pins != 0 {
				t.Fatalf("%d pins left after the one-shots returned", pins)
			}
		}

		t.Run(sampler+"/rewrite", func(t *testing.T) {
			a, b := gen(workload.Gaussian, 40_000, 2), gen(workload.Uniform, 15_000, 18)
			_, ref := newTestServer(t, Config{}, path, 40_000)
			allowed := map[string]int{oneShot(ref, spec): -1}
			if err := ref.FS.WriteFile(path, b); err != nil {
				t.Fatal(err)
			}
			allowed[oneShot(ref, spec)] = -1
			if len(allowed) != 2 {
				t.Fatal("both contents give the same report; test is vacuous")
			}
			s, env := newTestServer(t, Config{}, path, 40_000)
			race(t, env, allowed, func() {
				for i := 0; i < 12; i++ {
					data := b
					if i%2 == 1 {
						data = a
					}
					if _, err := s.Rewrite(path, data); err != nil {
						t.Error(err)
					}
					time.Sleep(2 * time.Millisecond)
				}
			})
		})

		t.Run(sampler+"/append", func(t *testing.T) {
			const batches = 8
			batch := func(i int) []byte { return gen(workload.Uniform, 6_000, uint64(30+i)) }
			_, ref := newTestServer(t, Config{}, path, 40_000)
			allowed := map[string]int{oneShot(ref, spec): 0}
			for i := 0; i < batches; i++ {
				if err := ref.FS.Append(path, batch(i)); err != nil {
					t.Fatal(err)
				}
				allowed[oneShot(ref, spec)] = i + 1
			}
			if len(allowed) != batches+1 {
				t.Fatalf("%d distinct reports over %d file states; test is weaker than it looks", len(allowed), batches+1)
			}
			s, env := newTestServer(t, Config{}, path, 40_000)
			race(t, env, allowed, func() {
				for i := 0; i < batches; i++ {
					if _, err := s.Append(path, batch(i)); err != nil {
						t.Error(err)
					}
					time.Sleep(2 * time.Millisecond)
				}
			})
		})
	}
}

// TestConcurrentRewriteNeverBlends hammers WatchReport while a rewrite
// of the watched path lands on another goroutine. Every report must be
// bit-identical to the pre-rewrite answer OR to a fresh watch over the
// rewritten contents — never a blend of old and new records. Run under
// -race this also pins the snapshot/refresh locking. This is the
// isolation contract that replaced the old "rewrite retires watches"
// carve-out.
func TestConcurrentRewriteNeverBlends(t *testing.T) {
	s, _ := newTestServer(t, Config{}, "/t/blend", 40_000)
	ctx := context.Background()
	spec := QuerySpec{Spec: plan.Spec{Path: "/t/blend", Stats: []string{"mean"}, Seed: 17}}

	w, _, err := s.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	pre := w.Report

	// Reference post-rewrite answer: a fresh watch on a second cluster
	// holding only the rewritten contents.
	newData, err := workload.NumericSpec{Dist: workload.Uniform, N: 15_000, Seed: 18}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	encoded := workload.EncodeLinesFixed(newData)
	s2, _ := newTestServer(t, Config{}, "/t/blend", 0)
	if _, err := s2.Rewrite("/t/blend", encoded); err != nil {
		t.Fatal(err)
	}
	ref, _, err := s2.OpenWatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	post := ref.Report

	sameReport := func(a, b core.Report) bool {
		return a.Estimate == b.Estimate && a.CILo == b.CILo &&
			a.CIHi == b.CIHi && a.SampleSize == b.SampleSize
	}
	if sameReport(pre, post) {
		t.Fatal("pre- and post-rewrite references coincide; test is vacuous")
	}

	rewriteDone := make(chan struct{})
	go func() {
		defer close(rewriteDone)
		if _, err := s.Rewrite("/t/blend", encoded); err != nil {
			t.Error(err)
		}
	}()

	sawPost := false
	for i := 0; ; i++ {
		info, err := s.WatchReport(ctx, w.ID)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		switch {
		case sameReport(info.Report, post):
			sawPost = true
		case sameReport(info.Report, pre):
			if sawPost {
				t.Fatalf("report %d regressed to the pre-rewrite answer", i)
			}
		default:
			t.Fatalf("report %d is a blend: %+v (pre %+v, post %+v)",
				i, info.Report, pre, post)
		}
		select {
		case <-rewriteDone:
			if sawPost {
				return
			}
		default:
		}
	}
}
