package live_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// TestWatchLifecycle walks the one Watch through its whole life — open →
// append → refresh → (no-op refresh) → rewrite → rebuild → append →
// refresh → close → ErrClosed — once per shape of retained state: one
// statistic, several sharing a sample, a plan with σ/π, a grouped query
// by record key, and a file small enough that the run falls back to the
// exact path. The watch is written against core.Retained alone, so every row
// must pass the same checks.
func TestWatchLifecycle(t *testing.T) {
	values := func(n int, seed uint64) []byte { return workload.EncodeLinesFixed(genValues(t, n, seed)) }
	keyed := func(n int, seed uint64) []byte {
		var buf []byte
		for i, x := range genValues(t, n, seed) {
			buf = append(buf, fmt.Sprintf("%s\t%012.6f\n", []string{"api", "db", "web"}[i%3], x)...)
		}
		return buf
	}
	planned := func(spec plan.Spec) *core.PlannedQuery {
		t.Helper()
		pq, err := core.PreparePlan(spec, core.Options{Sigma: 0.05, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return pq
	}
	opts := core.Options{Sigma: 0.05, Seed: 7}
	for _, tc := range []struct {
		name    string
		pq      *core.PlannedQuery
		gen     func(n int, seed uint64) []byte
		n       int // records in the opening file, and in the rewritten one
		reports int // statistics reported; 0 for a grouped result
		exact   bool
	}{
		{"scalar", core.JobQuery([]jobs.Numeric{jobs.Mean()}, "/w", opts), values, 60_000, 1, false},
		{"multi-statistic", core.JobQuery([]jobs.Numeric{jobs.Mean(), jobs.Median(), jobs.Count()}, "/w", opts), values, 60_000, 3, false},
		{"plan", planned(plan.Spec{Path: "/w", Stats: []string{"mean", "p95"}, Filter: "v > 25", Derive: "v * 2"}), values, 60_000, 2, false},
		{"grouped", core.KeyedJobQuery(jobs.Mean(), core.TabRoute(), "/w", opts), keyed, 60_000, 0, false},
		{"grouped plan", planned(plan.Spec{Path: "/w", Stats: []string{"mean"}, GroupBy: "floor(v / 50)"}), values, 60_000, 0, false},
		{"exact fall-back", core.JobQuery([]jobs.Numeric{jobs.Mean(), jobs.Median()}, "/w", opts), values, 300, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, 11)
			if err := env.FS.WriteFile("/w", tc.gen(tc.n, 12)); err != nil {
				t.Fatal(err)
			}
			w, err := live.Open(env, tc.pq)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, res *core.PlanResult) {
				t.Helper()
				if w.Grouped() != (tc.reports == 0) || (res.Groups != nil) != w.Grouped() || len(res.Reports) != tc.reports {
					t.Fatalf("%s: grouped=%v with %d reports, groups=%v", stage, w.Grouped(), len(res.Reports), res.Groups != nil)
				}
				for _, rep := range res.Reports {
					if rep.UsedFull != tc.exact {
						t.Fatalf("%s: UsedFull=%v, want %v: %+v", stage, rep.UsedFull, tc.exact, rep)
					}
				}
				if !reflect.DeepEqual(res, w.Result()) {
					t.Fatalf("%s: Result() is not what the call returned", stage)
				}
			}
			check("open", w.Result())
			opened := w.SampleSize()

			// append → refresh: one counted refresh, no new MR job, a
			// sample that grew; a second refresh finds nothing and reads
			// nothing.
			delta := tc.n / 4
			if err := env.FS.Append("/w", tc.gen(delta, 13)); err != nil {
				t.Fatal(err)
			}
			before := env.Metrics.Snapshot()
			res, err := w.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			cost := env.Metrics.Snapshot().Sub(before)
			check("refresh", res)
			if cost.Refreshes != 1 || w.Refreshes() != 1 || cost.JobStartups != 0 {
				t.Fatalf("refresh accounting: %+v, handle %d", cost, w.Refreshes())
			}
			if w.SampleSize() <= opened {
				t.Fatalf("refresh folded nothing: %d → %d records", opened, w.SampleSize())
			}
			if tc.exact && (w.SampleSize() != tc.n+delta || cost.RecordsRead != int64(delta)) {
				t.Fatalf("exact refresh holds %d records having read %d, want %d and %d", w.SampleSize(), cost.RecordsRead, tc.n+delta, delta)
			}
			before = env.Metrics.Snapshot()
			again, err := w.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if cost := env.Metrics.Snapshot().Sub(before); cost.RecordsRead != 0 || cost.BytesRead != 0 || w.Refreshes() != 1 {
				t.Fatalf("no-op refresh did work: %+v, handle %d", cost, w.Refreshes())
			}
			if !reflect.DeepEqual(again, res) {
				t.Fatalf("no-op refresh changed the answer:\n%+v\n%+v", again, res)
			}

			// rewrite → rebuild: the next refresh reports exactly what a
			// fresh watch over the rewritten file reports.
			rewritten := tc.gen(tc.n, 16)
			if err := env.FS.WriteFile("/w", rewritten); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := w.Refresh()
			if err != nil {
				t.Fatalf("refresh after rewrite: %v", err)
			}
			check("rebuild", rebuilt)
			twin := newEnv(t, 11)
			if err := twin.FS.WriteFile("/w", rewritten); err != nil {
				t.Fatal(err)
			}
			fresh, err := live.Open(twin, tc.pq)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if !reflect.DeepEqual(rebuilt, fresh.Result()) || w.SampleSize() != fresh.SampleSize() {
				t.Fatalf("rebuilt watch differs from a fresh one:\n got %+v\nwant %+v", rebuilt, fresh.Result())
			}

			// The rebuilt watch is maintained like the first was.
			rebuiltSize := w.SampleSize()
			if err := env.FS.Append("/w", tc.gen(delta, 15)); err != nil {
				t.Fatal(err)
			}
			if res, err = w.Refresh(); err != nil {
				t.Fatalf("refresh after rebuild + append: %v", err)
			}
			check("refresh after rebuild", res)
			if w.SampleSize() <= rebuiltSize || w.Refreshes() != 3 {
				t.Fatalf("refresh after rebuild: sample %d → %d, %d refreshes", rebuiltSize, w.SampleSize(), w.Refreshes())
			}

			// close: the last result stays readable, Refresh refuses, and
			// nothing is left pinned.
			w.Close()
			if _, err := w.Refresh(); !errors.Is(err, live.ErrClosed) {
				t.Fatalf("closed watch should refuse: %v", err)
			}
			if !reflect.DeepEqual(w.Result(), res) {
				t.Fatal("Close lost the last result")
			}
			if pins := env.FS.JournalStats().Pins; pins != 0 {
				t.Fatalf("%d snapshot pins left behind", pins)
			}
		})
	}
}

// TestWatchStale walks one watch through open → append → refresh →
// rewrite → refresh → close, sampled and on the exact fall-back: Stale
// reads false, true, false, true, false at those steps — the live file
// against the one state the watch last synced to — and never charges a
// counter.
func TestWatchStale(t *testing.T) {
	values := func(n int, seed uint64) []byte { return workload.EncodeLinesFixed(genValues(t, n, seed)) }
	for _, n := range []int{40_000, 300} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			env := newEnv(t, 21)
			if err := env.FS.WriteFile("/s", values(n, 22)); err != nil {
				t.Fatal(err)
			}
			w, err := live.Open(env, core.JobQuery([]jobs.Numeric{jobs.Mean()}, "/s", core.Options{Sigma: 0.05, Seed: 23}))
			if err != nil {
				t.Fatal(err)
			}
			stale := func(step string, want bool) {
				t.Helper()
				before := env.Metrics.Snapshot()
				got, err := w.Stale()
				if err != nil || got != want {
					t.Fatalf("%s: Stale() = %v, %v; want %v", step, got, err, want)
				}
				if cost := env.Metrics.Snapshot().Sub(before); cost != (simcost.Snapshot{}) {
					t.Fatalf("%s: Stale charged %+v", step, cost)
				}
			}
			refresh := func() {
				t.Helper()
				if _, err := w.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			stale("open", false)
			if err := env.FS.Append("/s", values(n/4, 24)); err != nil {
				t.Fatal(err)
			}
			stale("append", true)
			refresh()
			stale("refresh", false)
			if err := env.FS.WriteFile("/s", values(n, 25)); err != nil {
				t.Fatal(err)
			}
			stale("rewrite", true)
			refresh()
			stale("refresh after rewrite", false)
			w.Close()
			stale("close", false)
			if w.Refreshes() != 2 {
				t.Fatalf("%d refreshes, want 2", w.Refreshes())
			}
		})
	}
}
