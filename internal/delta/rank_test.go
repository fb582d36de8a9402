package delta

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// rankedData are the Δs shapes TestGrowRankedEqualsUnranked crosses with
// the quantile reducers: continuous values, heavy duplicates, the
// degenerate dictionaries, the two inputs a ranking must refuse (a NaN,
// and +0 beside −0, whose stored representative depends on sort order)
// and generations of a single record.
var rankedData = []string{"gaussian", "zipf", "all-equal", "two-values", "one-record", "nan-first", "nan-later", "signed-zeros"}

// rankedSizes is the growth schedule: two generations smaller than √n
// at the end, so resamples mostly shrink-and-refill — the
// delete/tombstone/compaction paths — rather than only grow.
func rankedSizes(data string) []int {
	if data == "one-record" {
		return []int{1, 1, 300, 1, 7}
	}
	return []int{400, 400, 900, 9, 5}
}

func rankedDelta(data string, gen, n int) []float64 {
	seed := uint64(gen + 6100)
	rng := rand.New(rand.NewPCG(seed, 0xd1ce))
	switch data {
	case "zipf":
		xs, err := workload.NumericSpec{Dist: workload.Zipf, N: n, Seed: seed}.Generate()
		if err != nil {
			panic(err)
		}
		return xs
	case "all-equal":
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 7.25
		}
		return xs
	case "two-values":
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(1 + 2*rng.IntN(2))
		}
		return xs
	case "signed-zeros":
		// Mostly zeros, so the median is one: generation 1 holds only −0,
		// generation 2 only +0, the others both signs side by side.
		negZero := math.Copysign(0, -1)
		xs := make([]float64, n)
		for i := range xs {
			switch u := rng.IntN(10); {
			case u < 3:
				xs[i] = negZero
			case u < 6:
				xs[i] = 0
			case u < 8:
				xs[i] = -1
			default:
				xs[i] = 1
			}
			if xs[i] == 0 && gen == 1 {
				xs[i] = negZero
			}
			if xs[i] == 0 && gen == 2 {
				xs[i] = 0
			}
		}
		return xs
	}
	xs := sampleData(n, seed)
	if (data == "nan-first" && gen == 0) || (data == "nan-later" && gen == 2) {
		xs[n/3] = math.NaN()
	}
	return xs
}

// rankedFingerprint is FNV-64a over, after each generation, every
// Results() value's bits, Updates(), resampleSizes and the simcost
// snapshot; a Grow error ends the schedule and its text is hashed.
func rankedFingerprint(t *testing.T, cfg Config, data string) uint64 {
	t.Helper()
	metrics := &simcost.Metrics{}
	cfg.Metrics = metrics
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
	for gi, sz := range rankedSizes(data) {
		if err := m.Grow(rankedDelta(data, gi, sz)); err != nil {
			if !strings.HasPrefix(data, "nan-") {
				t.Fatalf("%s generation %d: %v", data, gi, err)
			}
			fmt.Fprintf(h, "gen %d: %v", gi, err)
			break
		}
		vals, err := m.Results()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			put(math.Float64bits(v))
		}
		put(uint64(m.Updates()))
		for _, sz := range resampleSizes(m) {
			put(uint64(sz))
		}
		fmt.Fprintf(h, "%+v", metrics.Snapshot())
	}
	return h.Sum64()
}

// TestGrowRankedEqualsUnranked holds the quantile reducers' Grow to
// fingerprints recorded at the commit before a Δs was ranked once and
// counted per resample (every resample then sorted its own draws): same
// result bits, same work, same modelled cost, same error text, at every
// Parallelism. A pin is the fold of the four per-Parallelism
// fingerprints, which must also agree with each other — except where a
// NaN fails the Grow, whose error names the group of resamples and so
// the group size Parallelism picked.
func TestGrowRankedEqualsUnranked(t *testing.T) {
	for _, name := range []string{"median", "p5", "p95", "p99.9"} {
		job, err := jobs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range rankedData {
			for _, b := range []int{2, 3, 19, 30, 67} {
				key := fmt.Sprintf("%s/%s/B=%d", name, data, b)
				h := fnv.New64a()
				var first uint64
				for _, par := range []int{1, 2, 4, 8} {
					got := rankedFingerprint(t, Config{Reducer: job.Reducer, B: b, Seed: 4242, Parallelism: par}, data)
					if par == 1 {
						first = got
					} else if got != first && !strings.HasPrefix(data, "nan-") {
						t.Errorf("%s: fingerprint %#x at Parallelism %d, %#x at 1", key, got, par, first)
					}
					fmt.Fprintf(h, "%016x", got)
				}
				if want, ok := growRankedPins[key]; !ok {
					t.Errorf("unpinned\t%q: %#x,", key, h.Sum64())
				} else if got := h.Sum64(); got != want {
					t.Errorf("%s: fingerprint %#x, pinned %#x", key, got, want)
				}
			}
		}
	}
}
