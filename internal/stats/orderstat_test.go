package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refMultiset is the representation OrderStat replaced — a counted map
// re-sorted per query — kept here as the behavioural reference for the
// randomized equivalence suite.
type refMultiset struct {
	counts map[float64]int64
	n      int64
}

func newRefMultiset() *refMultiset {
	return &refMultiset{counts: map[float64]int64{}}
}

func (r *refMultiset) add(v float64) { r.counts[v]++; r.n++ }
func (r *refMultiset) remove(v float64) bool {
	if r.counts[v] <= 0 {
		return false
	}
	r.counts[v]--
	if r.counts[v] == 0 {
		delete(r.counts, v)
	}
	r.n--
	return true
}

func (r *refMultiset) quantile(q float64) (float64, error) {
	vals := make([]float64, 0, int(r.n))
	for v, c := range r.counts {
		for i := int64(0); i < c; i++ {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if len(vals) == 0 {
		return 0, ErrEmpty
	}
	return QuantileSorted(vals, q)
}

// randomValue draws from a small value set so removals and duplicates
// are frequent — the duplicate-heavy regime a counted multiset exists
// for — while still exercising dictionary growth.
func randomValue(rng *rand.Rand, spread int) float64 {
	return float64(rng.IntN(spread)) / 4
}

// TestOrderStatEquivalence is the randomized equivalence suite pinning
// the Fenwick multiset against the old sort-based representation:
// interleaved adds (single and batch), removes (single and batch),
// merges and quantile queries must agree at every step.
func TestOrderStatEquivalence(t *testing.T) {
	quantiles := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 99))
		spread := 4 + rng.IntN(200) // tiny spread → duplicate-heavy
		var os OrderStat
		ref := newRefMultiset()
		live := make([]float64, 0, 256) // values currently present
		check := func(step int) {
			t.Helper()
			if os.Len() != ref.n {
				t.Fatalf("trial %d step %d: len %d, want %d", trial, step, os.Len(), ref.n)
			}
			if ref.n == 0 {
				if _, err := os.Quantile(0.5); err == nil {
					t.Fatalf("trial %d step %d: empty quantile should error", trial, step)
				}
				return
			}
			for _, q := range quantiles {
				got, err := os.Quantile(q)
				if err != nil {
					t.Fatalf("trial %d step %d q=%v: %v", trial, step, q, err)
				}
				want, err := ref.quantile(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d step %d: quantile(%v) = %v, want %v", trial, step, q, got, want)
				}
			}
		}
		for step := 0; step < 120; step++ {
			switch op := rng.IntN(5); {
			case op == 0: // single add
				v := randomValue(rng, spread)
				if err := os.AddBatch([]float64{v}); err != nil {
					t.Fatal(err)
				}
				ref.add(v)
				live = append(live, v)
			case op == 1: // batch add (sometimes pre-sorted, like the engine)
				batch := make([]float64, 1+rng.IntN(30))
				for i := range batch {
					batch[i] = randomValue(rng, spread)
				}
				if rng.IntN(2) == 0 {
					sort.Float64s(batch)
				}
				if err := os.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, v := range batch {
					ref.add(v)
				}
				live = append(live, batch...)
			case op == 2 && len(live) > 0: // single remove of a present value
				i := rng.IntN(len(live))
				v := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := os.Remove(v); err != nil {
					t.Fatalf("remove(%v): %v", v, err)
				}
				ref.remove(v)
			case op == 3 && len(live) > 0: // batch remove
				k := 1 + rng.IntN(min(len(live), 20))
				batch := make([]float64, 0, k)
				for j := 0; j < k; j++ {
					i := rng.IntN(len(live))
					batch = append(batch, live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if err := os.RemoveBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, v := range batch {
					ref.remove(v)
				}
			case op == 4: // merge another multiset in
				var other OrderStat
				k := rng.IntN(20)
				for j := 0; j < k; j++ {
					v := randomValue(rng, spread)
					if err := other.AddBatch([]float64{v}); err != nil {
						t.Fatal(err)
					}
					ref.add(v)
					live = append(live, v)
				}
				os.Merge(&other)
			}
			check(step)
		}
	}
}

func TestOrderStatRemoveAbsent(t *testing.T) {
	var os OrderStat
	if err := os.AddBatch([]float64{1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(5); err == nil {
		t.Fatal("removing absent value should error")
	}
	if err := os.RemoveBatch([]float64{2, 2, 2}); err == nil {
		t.Fatal("over-removing should error")
	}
	// Tombstoned slot: fully removed value must reject further removes.
	if err := os.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(1); err == nil {
		t.Fatal("removing tombstoned value should error")
	}
}

func TestOrderStatTombstoneReviveAndCompact(t *testing.T) {
	var os OrderStat
	if err := os.AddBatch([]float64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	// Kill most slots, then revive one in a batch that also adds fresh
	// values — the merge path that must keep revived tombstones.
	if err := os.RemoveBatch([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := os.AddBatch([]float64{2, 2, 9}); err != nil {
		t.Fatal(err)
	}
	if os.Len() != 5 {
		t.Fatalf("len %d, want 5", os.Len())
	}
	if got := os.Distinct(); got != 4 { // {2, 7, 8, 9}
		t.Fatalf("distinct %d, want 4", got)
	}
	for k, want := range []float64{2, 2, 7, 8, 9} {
		got, err := os.Kth(int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("kth(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestOrderStatSteadyStateAllocFree(t *testing.T) {
	var os OrderStat
	seedVals := make([]float64, 512)
	for i := range seedVals {
		seedVals[i] = float64(i % 64)
	}
	if err := os.AddBatch(seedVals); err != nil {
		t.Fatal(err)
	}
	batch := []float64{3, 17, 42, 63, 5, 5}
	allocs := testing.AllocsPerRun(200, func() {
		if err := os.AddBatch(batch); err != nil { // existing values only: count bumps
			t.Fatal(err)
		}
		if err := os.RemoveBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Quantile(0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state add/remove/quantile allocated %.1f/op, want 0", allocs)
	}
}

func TestOrderStatQuantileGuards(t *testing.T) {
	var os OrderStat
	if _, err := os.Quantile(0.5); err == nil {
		t.Fatal("empty quantile should error")
	}
	if err := os.AddBatch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Kth(-1); err == nil {
		t.Fatal("negative k should error")
	}
	if _, err := os.Kth(1); err == nil {
		t.Fatal("k ≥ n should error")
	}
	if v, err := os.Quantile(math.NaN() * 0); err == nil && math.IsNaN(v) {
		t.Fatal("NaN quantile must not silently propagate")
	}
}

// TestOrderStatRejectsNaN: a NaN admitted into the sorted dictionary
// would break binary searches for finite values too, so AddBatch
// refuses it atomically — the state is untouched on rejection. NaN
// records are remotely reachable (ParseFloat accepts "NaN" and earld
// feeds parsed records straight into maintained quantile states).
func TestOrderStatRejectsNaN(t *testing.T) {
	var os OrderStat
	if err := os.AddBatch([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := os.AddBatch([]float64{math.NaN()}); !errors.Is(err, ErrNaN) {
		t.Fatalf("AddBatch of a lone NaN: err = %v, want ErrNaN", err)
	}
	if err := os.AddBatch([]float64{4, math.NaN(), 5}); err == nil {
		t.Fatal("AddBatch with NaN should error")
	}
	if os.Len() != 3 {
		t.Fatalf("rejected batch mutated the multiset: len %d, want 3", os.Len())
	}
	// Finite values must remain fully operational after the rejections.
	if err := os.Remove(2); err != nil {
		t.Fatal(err)
	}
	if v, err := os.Quantile(0.5); err != nil || v != 2 {
		t.Fatalf("quantile = %v, %v; want 2", v, err)
	}
}

// TestOrderStatAddCountedEqualsAddBatch: a batch handed over sorted and
// counted leaves the multiset slot for slot where the same batch as an
// unsorted slice leaves it — dictionary bits, multiplicities, tombstones
// and index — through growth, removals, revivals and compaction, for
// dense and sparse batches and zero counts.
func TestOrderStatAddCountedEqualsAddBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 19))
	var viaBatch, viaCounted OrderStat
	var live []float64
	for step := 0; step < 400; step++ {
		// A source of a few distinct values, or many; a batch drawn from it.
		source := make([]float64, 1+rng.IntN(60))
		spread := []float64{3, 40, 4000}[rng.IntN(3)]
		for i := range source {
			source[i] = math.Round(rng.Float64() * spread)
		}
		distinct := append([]float64(nil), source...)
		sort.Float64s(distinct)
		w := 1
		for _, v := range distinct[1:] {
			if v != distinct[w-1] {
				distinct[w] = v
				w++
			}
		}
		distinct = distinct[:w]
		counts := make([]uint32, len(distinct))
		var batch []float64
		for n := rng.IntN(2 * len(source)); n > 0; n-- {
			v := source[rng.IntN(len(source))]
			batch = append(batch, v)
			counts[sort.SearchFloat64s(distinct, v)]++
		}
		if err := viaBatch.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		viaCounted.AddCounted(distinct, counts)
		live = append(live, batch...)
		// Remove a random share, sometimes nearly everything, so slots
		// die, outnumber the live ones and are revived by later batches.
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		cut := rng.IntN(len(live) + 1)
		if rng.IntN(4) == 0 {
			cut = len(live) - rng.IntN(min(3, len(live)+1))
		}
		for _, o := range []*OrderStat{&viaBatch, &viaCounted} {
			if err := o.RemoveBatch(live[:cut]); err != nil {
				t.Fatal(err)
			}
		}
		live = live[cut:]

		a, b := &viaBatch, &viaCounted
		if a.n != b.n || a.zeros != b.zeros || len(a.vals) != len(b.vals) {
			t.Fatalf("step %d: n %d/%d zeros %d/%d slots %d/%d", step, a.n, b.n, a.zeros, b.zeros, len(a.vals), len(b.vals))
		}
		for i := range a.vals {
			if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) || a.counts[i] != b.counts[i] || a.tree.tree[i] != b.tree.tree[i] {
				t.Fatalf("step %d slot %d: %v×%d vs %v×%d", step, i, a.vals[i], a.counts[i], b.vals[i], b.counts[i])
			}
		}
	}
	if viaBatch.zeros == 0 && viaBatch.Distinct() == len(viaBatch.vals) && viaBatch.n == 0 {
		t.Fatal("schedule never left the trivial state")
	}
}
