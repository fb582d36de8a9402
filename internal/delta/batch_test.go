package delta

import (
	"runtime"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// TestPickPartWeightedSkipsEmptyParts is the regression test for the
// historical pickPartWeighted bug: its inner `if p.Size() == 0` branch
// was unreachable, so the empty-part skip it promised was never
// exercised. The Fenwick-weighted pick gives empty parts zero width —
// this pins that they are genuinely never returned, and that picks stay
// proportional to part size.
func TestPickPartWeightedSkipsEmptyParts(t *testing.T) {
	rng := stats.NewPCG(3, 4)
	r := &resample{src: rng}
	sizes := []int{5, 0, 3, 0, 0, 2}
	for _, n := range sizes {
		items := make([]float64, n)
		for i := range items {
			items[i] = float64(i)
		}
		r.parts = append(r.parts, sketch.NewPart(items, 0, rng, nil))
		r.partTree.Append(int64(n))
	}
	counts := make([]int, len(sizes))
	const draws = 10_000
	for d := 0; d < draws; d++ {
		pi, p := pickPartWeighted(r)
		if p == nil {
			t.Fatal("pick returned nil with non-empty parts")
		}
		if p.Size() == 0 {
			t.Fatalf("picked empty part %d", pi)
		}
		if p != r.parts[pi] {
			t.Fatalf("index %d does not match returned part", pi)
		}
		counts[pi]++
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	for i, n := range sizes {
		if n == 0 {
			if counts[i] != 0 {
				t.Fatalf("empty part %d picked %d times", i, counts[i])
			}
			continue
		}
		want := float64(draws) * float64(n) / float64(total)
		if got := float64(counts[i]); got < 0.8*want || got > 1.2*want {
			t.Fatalf("part %d (size %d) picked %v times, want ≈%v", i, n, got, want)
		}
	}
}

// TestPickPartWeightedAllEmpty covers the degenerate every-part-empty
// case: the pick must report exhaustion, not loop or panic.
func TestPickPartWeightedAllEmpty(t *testing.T) {
	rng := stats.NewPCG(5, 6)
	r := &resample{src: rng}
	r.parts = append(r.parts, sketch.NewPart(nil, 0, rng, nil))
	r.partTree.Append(0)
	if pi, p := pickPartWeighted(r); p != nil || pi != -1 {
		t.Fatalf("all-empty pick returned (%d, %v), want (-1, nil)", pi, p)
	}
}

// TestMaintainerPartSizesMatchTree pins the partTree-in-lockstep
// invariant across a growth schedule: the Fenwick totals must equal the
// actual part sizes after every generation, and with the pending draws
// make N, for a counted reducer (the quantile multiset) and a plain one
// alike.
func TestMaintainerPartSizesMatchTree(t *testing.T) {
	for name, red := range map[string]mr.IncrementalReducer{
		"quantile": jobs.Median().Reducer,
		"welford":  welfordReducer{},
	} {
		m, err := New(Config{Reducer: red, B: 8, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		for gi, sz := range []int{200, 300, 500} {
			if err := m.Grow(sampleData(sz, uint64(gi+30))); err != nil {
				t.Fatal(err)
			}
			for ri, r := range m.resamples {
				var n int64
				for pi, p := range r.parts {
					n += int64(p.Size())
					if got := r.partTree.Prefix(pi+1) - r.partTree.Prefix(pi); got != int64(p.Size()) {
						t.Fatalf("%s: resample %d part %d tree weight %d, size %d", name, ri, pi, got, p.Size())
					}
				}
				if r.partTree.Total() != n || n+int64(len(r.drawn)) != int64(m.N()) {
					t.Fatalf("%s: resample %d tree total %d, items %d, pending %d, N %d", name, ri, r.partTree.Total(), n, len(r.drawn), m.N())
				}
			}
		}
	}
}

// TestMaintainerBuildsAGenerationAtTheNextGrow pins the deferral: after
// k grows each resample holds k−1 built parts and caches, whose items
// and its pending draws from the k-th Δs make N, and the next grow
// builds exactly one more part and cache. A maintainer never builds the
// generation it does not grow past.
func TestMaintainerBuildsAGenerationAtTheNextGrow(t *testing.T) {
	m, err := New(Config{Reducer: jobs.Mean().Reducer, B: 6, Seed: 5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k, sz := range []int{100, 200, 400, 800} {
		if err := m.Grow(sampleData(sz, uint64(k+60))); err != nil {
			t.Fatal(err)
		}
		for ri, r := range m.resamples {
			if len(r.parts) != k || len(r.caches) != k {
				t.Fatalf("after %d grows: resample %d holds %d parts and %d caches, want %d each",
					k+1, ri, len(r.parts), len(r.caches), k)
			}
			n := len(r.drawn)
			for _, p := range r.parts {
				n += p.Size()
			}
			if len(r.drawn) == 0 || n != m.N() {
				t.Fatalf("after %d grows: resample %d holds %d pending draws, %d items in all, N %d",
					k+1, ri, len(r.drawn), n, m.N())
			}
		}
	}
}

// TestMaintainerQuantileBatchedGrowDeterministic runs the quantile
// (order-statistic multiset) reducer through the batched Grow path at
// several parallelism levels — bit-identical results, and agreement
// with the naive recompute's sample on every size invariant. Under
// `go test -race` this doubles as the race coverage of batched Grow.
func TestMaintainerQuantileBatchedGrowDeterministic(t *testing.T) {
	var ref []float64
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		m, err := New(Config{Reducer: jobs.Median().Reducer, B: 20, Seed: 77, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for gi, sz := range []int{400, 400, 800} {
			if err := m.Grow(sampleData(sz, uint64(gi+500))); err != nil {
				t.Fatal(err)
			}
		}
		for _, sz := range m.ResampleSizes() {
			if sz != m.N() {
				t.Fatalf("resample size %d, want %d", sz, m.N())
			}
		}
		vals, err := m.Results()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vals
			continue
		}
		for i := range ref {
			if vals[i] != ref[i] {
				t.Fatalf("parallelism %d: Results()[%d] = %v, want %v (bit-identical)", par, i, vals[i], ref[i])
			}
		}
	}
	// The maintained medians must hug the true median of the accumulated
	// sample.
	var all []float64
	for gi, sz := range []int{400, 400, 800} {
		all = append(all, sampleData(sz, uint64(gi+500))...)
	}
	truth, err := stats.Median(all)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := stats.Mean(ref)
	if err != nil {
		t.Fatal(err)
	}
	if d := mean - truth; d > 0.2 || d < -0.2 {
		t.Fatalf("maintained median %v far from truth %v", mean, truth)
	}
}

// TestMaintainerGrowSteadyStateAllocs pins the tentpole's alloc budget
// at the unit level: growing B resamples by a generation must cost a
// small constant number of allocations per resample (sketch part +
// cache), not one per item as a per-value Update loop would. It also
// holds the budgets of a whole four-generation schedule (n = 4096,
// B = 30), whose last generation stays pending and is never built: a
// mean one at 917 allocations (parts, caches and per-worker scratch;
// 875 measured at Parallelism 2, down from 918 while each batch was
// boxed into an any), and a median one — whose resamples arrive
// counted instead of being sorted in each state's own buffer — at
// 1 296 (1 261 measured, down from 1 304).
// AllocsPerRun runs at GOMAXPROCS 1, so Parallelism is set explicitly
// to cover a pool of workers too.
func TestMaintainerGrowSteadyStateAllocs(t *testing.T) {
	m, err := New(Config{Reducer: jobs.Mean().Reducer, B: 10, Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(sampleData(2000, 1)); err != nil {
		t.Fatal(err)
	}
	gen := uint64(2)
	allocs := testing.AllocsPerRun(5, func() {
		if err := m.Grow(sampleData(2000, gen)); err != nil {
			t.Fatal(err)
		}
		gen++
	})
	// ~10 resamples × (part copy + part struct + cache struct + cache buf
	// …) plus the retained Δs copy; one alloc per
	// *item* would be ≥ 20k.
	if allocs > 300 {
		t.Fatalf("Grow allocated %.0f/op, want small constant per resample (≤300)", allocs)
	}

	ds := sampleData(4096, 1)
	for _, c := range []struct {
		job    jobs.Numeric
		budget float64
	}{{jobs.Mean(), 917}, {jobs.Median(), 1296}} {
		for _, par := range []int{1, 2} {
			seed := uint64(0)
			allocs := testing.AllocsPerRun(3, func() {
				seed++
				m, err := New(Config{Reducer: c.job.Reducer, B: 30, Seed: seed, Key: "b", Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				for g := 0; g < 4; g++ {
					if err := m.Grow(ds); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Logf("%s, Parallelism %d: %.0f allocs", c.job.Name, par, allocs)
			if allocs > c.budget {
				t.Errorf("%s, Parallelism %d: four Grow generations made %.0f allocs, budget %.0f", c.job.Name, par, allocs, c.budget)
			}
		}
	}
}
