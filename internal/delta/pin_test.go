package delta

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/jobs"
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

// TestGrowFinalEqualsGrow: ending a schedule with GrowFinal leaves the
// same results, the same work count and the same modelled cost as
// ending it with Grow — it only skips preparing a generation that never
// comes — and the maintainer refuses to grow afterwards.
func TestGrowFinalEqualsGrow(t *testing.T) {
	for _, name := range []string{"mean", "median"} {
		job, err := jobs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, gens := range []int{1, 4} {
			run := func(final bool) ([]float64, int64, simcost.Snapshot, *Maintainer) {
				metrics := &simcost.Metrics{}
				m, err := New(Config{Reducer: job.Reducer, B: 19, Seed: 77, Metrics: metrics, Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				for gi := 0; gi < gens; gi++ {
					grow := m.Grow
					if final && gi == gens-1 {
						grow = m.GrowFinal
					}
					if err := grow(sampleData(300<<gi, uint64(gi+5200))); err != nil {
						t.Fatal(err)
					}
				}
				vals, err := m.Results()
				if err != nil {
					t.Fatal(err)
				}
				return vals, m.Updates(), metrics.Snapshot(), m
			}
			wantVals, wantUpdates, wantCost, _ := run(false)
			gotVals, gotUpdates, gotCost, m := run(true)
			for i := range wantVals {
				if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("%s gens=%d: Results()[%d] = %v after GrowFinal, %v after Grow", name, gens, i, gotVals[i], wantVals[i])
				}
			}
			if gotUpdates != wantUpdates || gotCost != wantCost {
				t.Fatalf("%s gens=%d: updates %d cost %+v after GrowFinal, %d %+v after Grow", name, gens, gotUpdates, gotCost, wantUpdates, wantCost)
			}
			if m.N() != 300<<gens-300 || m.Generation() != gens {
				t.Fatalf("%s gens=%d: N=%d Generation=%d", name, gens, m.N(), m.Generation())
			}
			if err := m.Grow(sampleData(10, 1)); err == nil {
				t.Fatalf("%s: Grow after GrowFinal succeeded", name)
			}
			if err := m.GrowFinal(sampleData(10, 1)); err == nil {
				t.Fatalf("%s: GrowFinal after GrowFinal succeeded", name)
			}
		}
	}
}
