package delta

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/simcost"
)

// growPins are fixed-seed fingerprints of a five-generation Grow
// schedule, recorded at the commit before Grow handled resamples in
// groups: FNV-64a over, after every generation, each Results() value's
// math.Float64bits, Updates() and every ResampleSizes() entry. However
// Grow schedules its resamples, these must not move — a resample's rng
// stream, its state arithmetic and its charged work are its own.
var growPins = map[string]uint64{
	"mean/B=2":    0x7f8dfd37fb6b4063,
	"mean/B=3":    0xef55800079c65d58,
	"mean/B=4":    0x304a746337294b91,
	"mean/B=5":    0x7fdcdbfbf8b0090b,
	"mean/B=19":   0x2762f399720d86b2,
	"mean/B=30":   0x1c176e6423c18126,
	"mean/B=67":   0x112de38c1bd635e2,
	"median/B=2":  0xec101c2952247f21,
	"median/B=3":  0x62ca71ef506f6e9c,
	"median/B=4":  0xb4a1a84c93cb5418,
	"median/B=5":  0x9fb8474d0033a1b7,
	"median/B=19": 0x9a3ea91d99ee5cdf,
	"median/B=30": 0xbce6e0486cab1e20,
	"median/B=67": 0x7a934594ad6659a,
}

func growFingerprint(t *testing.T, cfg Config) uint64 {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for gi, sz := range []int{160, 160, 320, 640, 1280} {
		if err := m.Grow(sampleData(sz, uint64(gi+4100))); err != nil {
			t.Fatal(err)
		}
		vals, err := m.Results()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			put(math.Float64bits(v))
		}
		put(uint64(m.Updates()))
		for _, sz := range m.ResampleSizes() {
			put(uint64(sz))
		}
	}
	return h.Sum64()
}

// TestGrowPinnedAcrossGroupingAndParallelism holds Grow to the recorded
// fingerprints for B below, at and above the lane width, at every
// Parallelism (so every group size the scheduler can pick is covered).
func TestGrowPinnedAcrossGroupingAndParallelism(t *testing.T) {
	for _, name := range []string{"mean", "median"} {
		job, err := jobs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{2, 3, 4, 5, 19, 30, 67} {
			key := fmt.Sprintf("%s/B=%d", name, b)
			for _, par := range []int{1, 2, 4, 8} {
				got := growFingerprint(t, Config{Reducer: job.Reducer, B: b, Seed: 9001, Parallelism: par})
				if want := growPins[key]; got != want {
					t.Errorf("%s parallelism %d: fingerprint %#x, pinned %#x", key, par, got, want)
				}
			}
		}
	}
}

// TestGrowRankedEqualsGrow: a schedule grown through GrowRanked — handed
// mr.Rank of each Δs, or nil (fold in draw order, even for a reducer
// Grow would rank for), and ending with a final grow or not — leaves,
// after every generation, the same results bit for bit, the same work
// count and the same modelled cost as the schedule grown through Grow.
// A final grow only skips preparing a generation that never comes, and
// the maintainer refuses to grow after it. The reducers are a lane
// reducer Rank refuses (mean), two quantiles it ranks, and a median over
// +0 beside −0, which it refuses too.
func TestGrowRankedEqualsGrow(t *testing.T) {
	for _, c := range []struct{ name, data string }{
		{"mean", "zipf"}, {"median", "zipf"}, {"p95", "gaussian"}, {"median", "signed-zeros"},
	} {
		job, err := jobs.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		type gen struct {
			vals    []float64
			updates int64
			cost    simcost.Snapshot
		}
		schedule := func(par, gens int, grow func(m *Maintainer, gi int, ds []float64) error) ([]gen, *Maintainer) {
			metrics := &simcost.Metrics{}
			m, err := New(Config{Reducer: job.Reducer, B: 19, Seed: 77, Metrics: metrics, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			var out []gen
			for gi := 0; gi < gens; gi++ {
				if err := grow(m, gi, rankedDelta(c.data, gi, 300<<gi)); err != nil {
					t.Fatal(err)
				}
				vals, err := m.Results()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, gen{vals, m.Updates(), metrics.Snapshot()})
			}
			return out, m
		}
		want, _ := schedule(1, 4, func(m *Maintainer, _ int, ds []float64) error { return m.Grow(ds) })
		for _, par := range []int{1, 3} {
			for _, ranked := range []bool{true, false} {
				// Four generations, none final; one, final (the first
				// grow's path); four, the last final.
				for _, run := range []struct {
					gens  int
					final bool
				}{{4, false}, {1, true}, {4, true}} {
					where := fmt.Sprintf("%s/%s par=%d ranked=%v %+v", c.name, c.data, par, ranked, run)
					got, m := schedule(par, run.gens, func(m *Maintainer, gi int, ds []float64) error {
						var rk *mr.Ranking
						if ranked {
							rk = mr.Rank(job.Reducer, ds)
						}
						return m.GrowRanked(ds, rk, run.final && gi == run.gens-1)
					})
					for gi := range got {
						for i := range want[gi].vals {
							if math.Float64bits(got[gi].vals[i]) != math.Float64bits(want[gi].vals[i]) {
								t.Fatalf("%s gen %d: Results()[%d] = %v, %v under Grow", where, gi, i, got[gi].vals[i], want[gi].vals[i])
							}
						}
						if got[gi].updates != want[gi].updates || got[gi].cost != want[gi].cost {
							t.Fatalf("%s gen %d: updates %d cost %+v, %d %+v under Grow", where, gi, got[gi].updates, got[gi].cost, want[gi].updates, want[gi].cost)
						}
					}
					if m.N() != 300<<run.gens-300 || m.Generation() != run.gens {
						t.Fatalf("%s: N=%d Generation=%d", where, m.N(), m.Generation())
					}
					if !run.final {
						continue
					}
					if err := m.Grow(sampleData(10, 1)); err == nil {
						t.Fatalf("%s: Grow after a final grow succeeded", where)
					}
					if err := m.GrowRanked(sampleData(10, 1), nil, true); err == nil {
						t.Fatalf("%s: a final grow after a final grow succeeded", where)
					}
				}
			}
		}
	}
}

// TestGrowRankedRejectsAMismatchedRanking: a ranking of another Δs
// cannot be counted into this one's draws.
func TestGrowRankedRejectsAMismatchedRanking(t *testing.T) {
	red := jobs.Median().Reducer
	m, err := New(Config{Reducer: red, B: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.GrowRanked(sampleData(20, 1), mr.Rank(red, sampleData(19, 1)), false); err == nil {
		t.Fatal("GrowRanked accepted a ranking of 19 values for a Δs of 20")
	}
}

// TestSharedMaintainerEqualsOneEach: a maintainer folding several
// statistics, each reading its first B resamples, leaves each statistic
// the result distribution a maintainer of its own with the same seed
// leaves, bit for bit, and charges the state operations and modelled
// cost the maintainers one by one add up to — for a lane reducer, a
// counted one, and one whose states cannot remove and are rebuilt,
// over ranked and unranked generations, at any Parallelism.
func TestSharedMaintainerEqualsOneEach(t *testing.T) {
	stats := []Stat{
		{Reducer: jobs.Mean().Reducer, Key: "mean", B: 7},
		{Reducer: jobs.Median().Reducer, Key: "median", B: 12},
		{Reducer: noRemoveReducer{}, Key: "plain", B: 5},
	}
	gens := [][]float64{sampleData(200, 41), sampleData(300, 42), sampleData(500, 43)}
	for _, par := range []int{1, 3} {
		var wantCost simcost.Snapshot
		var wantUpdates int64
		want := make([][]float64, len(stats))
		for s, st := range stats {
			metrics := &simcost.Metrics{}
			m, err := New(Config{Reducer: st.Reducer, Key: st.Key, B: st.B, Seed: 9, Metrics: metrics, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range gens {
				if err := m.Grow(g); err != nil {
					t.Fatal(err)
				}
			}
			if want[s], err = m.Results(); err != nil {
				t.Fatal(err)
			}
			wantCost = wantCost.Add(metrics.Snapshot())
			wantUpdates += m.Updates()
		}
		metrics := &simcost.Metrics{}
		m, err := New(Config{Reducer: stats[0].Reducer, Key: stats[0].Key, B: stats[0].B, Seed: 9, Metrics: metrics, Parallelism: par}, stats[1:]...)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gens {
			if err := m.Grow(g); err != nil {
				t.Fatal(err)
			}
		}
		if m.B() != 12 {
			t.Fatalf("parallelism %d: %d resamples held, want the largest B, 12", par, m.B())
		}
		for s, st := range stats {
			got, err := m.ResultsOf(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != st.B {
				t.Fatalf("parallelism %d: %s has %d values, want %d", par, st.Key, len(got), st.B)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[s][i]) {
					t.Fatalf("parallelism %d: %s resample %d = %v shared, %v alone", par, st.Key, i, got[i], want[s][i])
				}
			}
		}
		if m.Rebuilds() == 0 {
			t.Fatalf("parallelism %d: the plain reducer's states were never rebuilt", par)
		}
		if got := m.Updates(); got != wantUpdates {
			t.Errorf("parallelism %d: %d state operations shared, %d alone", par, got, wantUpdates)
		}
		if cost := metrics.Snapshot(); cost != wantCost {
			t.Errorf("parallelism %d: cost %+v shared, %+v alone", par, cost, wantCost)
		}
	}
}
