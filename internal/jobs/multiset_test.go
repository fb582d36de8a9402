package jobs

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/mr"
)

// multisetNames are the named reducers that must be mr.MultisetReducers;
// momentNames are Welford-backed and must not be — their bits follow
// the fold order.
var (
	multisetNames = []string{"median", "p5", "p95", "p99.9", "q0.25"}
	momentNames   = []string{"mean", "sum", "count", "variance", "stddev", "proportion"}
)

// quantileSweep finalizes one multiset state at several quantiles, so a
// comparison sees more of the dictionary than the reducer's own q.
func quantileSweep(t *testing.T, st mr.State) []uint64 {
	t.Helper()
	var bits []uint64
	for _, q := range []float64{0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
		v, err := quantileReducer{q: q}.Finalize(st)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// TestMultisetReducersIgnoreBatchOrder holds every reducer that declares
// mr.MultisetReducer to its promise: two Updates of an empty state over
// 50 random permutations of their batches, over their ascending order,
// and over the sorted-and-counted form a ranking presents, leave states
// that finalize to the same bits — and again after Remove, which reads
// the dictionary the batches built (tombstones included).
func TestMultisetReducersIgnoreBatchOrder(t *testing.T) {
	for _, name := range momentNames {
		job, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := job.Reducer.(mr.MultisetReducer); ok {
			t.Errorf("%s is Welford-backed but declares mr.MultisetReducer", name)
		}
	}
	for _, name := range multisetNames {
		job, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := job.Reducer.(mr.MultisetReducer); !ok {
			t.Errorf("%s does not declare mr.MultisetReducer", name)
			continue
		}
		for _, shape := range []string{"continuous", "ties", "two-values"} {
			rng := rand.New(rand.NewPCG(77, 0xbeef))
			draw := func(n int) []float64 {
				xs := make([]float64, n)
				for i := range xs {
					switch shape {
					case "continuous":
						xs[i] = rng.NormFloat64()*15 + 50
					case "ties":
						xs[i] = math.Round(rng.NormFloat64()*15+50) / 4
					default:
						xs[i] = float64(rng.IntN(2))
					}
				}
				return xs
			}
			first, second := draw(300), draw(500)
			removed := append(append([]float64(nil), first[:100]...), second[:250]...)

			// run folds one presentation of the two batches into an
			// empty state and returns its sweep before and after the
			// removal.
			run := func(updates ...func(mr.State) (mr.State, error)) [2][]uint64 {
				st, err := job.Reducer.Initialize("k")
				if err != nil {
					t.Fatal(err)
				}
				for _, update := range updates {
					if st, err = update(st); err != nil {
						t.Fatal(err)
					}
				}
				var out [2][]uint64
				out[0] = quantileSweep(t, st)
				if err := job.Reducer.Remove(st, removed); err != nil {
					t.Fatalf("%s: Remove: %v", name, err)
				}
				out[1] = quantileSweep(t, st)
				return out
			}
			slices := func(a, b []float64) [2][]uint64 {
				return run(
					func(st mr.State) (mr.State, error) { return job.Reducer.Update(st, a) },
					func(st mr.State) (mr.State, error) { return job.Reducer.Update(st, b) },
				)
			}
			want := slices(first, second)
			check := func(how string, got [2][]uint64) {
				t.Helper()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %s %s: sweeps %x, draw order gives %x", name, shape, how, got, want)
				}
			}
			for p := 0; p < 50; p++ {
				a := append([]float64(nil), first...)
				b := append([]float64(nil), second...)
				rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				check(fmt.Sprintf("permutation %d", p), slices(a, b))
			}
			a := append([]float64(nil), first...)
			b := append([]float64(nil), second...)
			sort.Float64s(a)
			sort.Float64s(b)
			check("ascending", slices(a, b))

			// Counted: each batch is itself the source, drawn once at
			// every position, so the counts describe exactly the batch.
			counted := func(source []float64) (*mr.Ranking, []uint32) {
				rk := mr.Rank(job.Reducer, source)
				if rk == nil {
					t.Fatalf("%s %s: batch not ranked", name, shape)
				}
				counts := make([]uint32, len(rk.Distinct))
				for p := range source {
					counts[rk.Of[p]]++
				}
				return rk, counts
			}
			updateCounted := func(batch []float64) func(mr.State) (mr.State, error) {
				return func(st mr.State) (mr.State, error) {
					rk, counts := counted(batch)
					return job.Reducer.(mr.MultisetReducer).UpdateCounted(st, rk.Distinct, counts)
				}
			}
			check("counted", run(updateCounted(first), updateCounted(second)))
		}
	}
}

// TestRankRefusesWhatSortingWouldChange: a source with a NaN, or with +0
// beside −0, is not ranked (the reducer's own path rejects the first and
// picks the second's representative), and neither is anything for a
// reducer that is not a MultisetReducer.
func TestRankRefusesWhatSortingWouldChange(t *testing.T) {
	median, mean := Median().Reducer, Mean().Reducer
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name   string
		red    mr.IncrementalReducer
		source []float64
		ranked bool
	}{
		{"plain", median, []float64{3, 1, 2, 1}, true},
		{"only −0", median, []float64{negZero, 1, negZero}, true},
		{"only +0", median, []float64{0, 1, 0}, true},
		{"NaN", median, []float64{1, math.NaN(), 2}, false},
		{"both zeros", median, []float64{0, 1, negZero}, false},
		{"empty", median, nil, false},
		{"moment reducer", mean, []float64{3, 1, 2}, false},
	} {
		rk := mr.Rank(c.red, c.source)
		if (rk != nil) != c.ranked {
			t.Errorf("%s: ranked = %v, want %v", c.name, rk != nil, c.ranked)
		}
		if rk == nil {
			continue
		}
		if !sort.Float64sAreSorted(rk.Distinct) {
			t.Errorf("%s: Distinct %v not ascending", c.name, rk.Distinct)
		}
		for j, v := range c.source {
			if got := rk.Distinct[rk.Of[j]]; math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("%s: position %d ranks to %v, holds %v", c.name, j, got, v)
			}
		}
	}
}

// TestFinalizeCountedEqualsFinalize holds every mr.MultisetReducer to
// FinalizeCounted's promise: the result of a counted batch, by bits and
// error, is Finalize of the empty state UpdateCounted folds it into — for
// continuous values, ties, a lone −0, infinities, a universe whose ends
// and middle hold zero counts, and no mass at all.
func TestFinalizeCountedEqualsFinalize(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewPCG(78, 0xfeed))
	universes := map[string][]float64{
		"continuous": {-40.5, -3, -1e-9, 0.25, 7, 12.5, 50, 1e6},
		"ties":       {1, 2},
		"lone −0":    {-2, negZero, 3},
		"infinities": {math.Inf(-1), -1, 1, math.Inf(1)},
	}
	for _, name := range multisetNames {
		job, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		red := job.Reducer.(mr.MultisetReducer)
		for _, shape := range []string{"continuous", "ties", "lone −0", "infinities"} {
			distinct := universes[shape]
			for trial := range 40 {
				counts := make([]uint32, len(distinct))
				var n int64
				for i := range counts {
					switch {
					case trial == 0: // no mass at all
					case trial%3 == 1 && (i == 0 || i == len(counts)-1 || i == len(counts)/2):
						// zero counts at the ends and in the middle
					default:
						counts[i] = uint32(rng.IntN(6))
					}
					n += int64(counts[i])
				}
				want, errWant := 0.0, error(nil)
				st, err := job.Reducer.Initialize("k")
				if err == nil {
					st, err = red.UpdateCounted(st, distinct, counts)
				}
				if err == nil {
					want, errWant = job.Reducer.Finalize(st)
				} else {
					errWant = err
				}
				got, errGot := red.FinalizeCounted(distinct, counts, n)
				if fmt.Sprint(errGot) != fmt.Sprint(errWant) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s counts %v: FinalizeCounted = %v (%v), Finalize of the state = %v (%v)",
						name, shape, counts, got, errGot, want, errWant)
				}
			}
		}
	}
}
