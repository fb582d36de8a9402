package delta

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/mr"
	"repro/internal/simcost"
	"repro/internal/stats"
	"repro/internal/workload"
)

// welfordReducer is the mean statistic as a plain IncrementalReducer:
// it removes, but folds neither lanes nor counts, so delta maintenance
// takes its one-Update-per-state paths.
type welfordReducer struct{}

type welfordState struct {
	w stats.Welford
}

func (welfordReducer) Initialize(string) (mr.State, error) { return &welfordState{}, nil }

func (welfordReducer) Update(state mr.State, values []float64) (mr.State, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return nil, mr.ErrBadState
	}
	for _, v := range values {
		st.w.Add(v)
	}
	return st, nil
}

func (welfordReducer) Remove(state mr.State, values []float64) error {
	st, ok := state.(*welfordState)
	if !ok {
		return mr.ErrBadState
	}
	for _, v := range values {
		st.w.Remove(v)
	}
	return nil
}

func (welfordReducer) Merge(state, other mr.State) (mr.State, error) {
	st, ok := state.(*welfordState)
	o, ok2 := other.(*welfordState)
	if !ok || !ok2 {
		return nil, mr.ErrBadState
	}
	st.w.Merge(o.w)
	return st, nil
}

func (welfordReducer) Finalize(state mr.State) (float64, error) {
	st, ok := state.(*welfordState)
	if !ok {
		return 0, mr.ErrBadState
	}
	return st.w.Mean(), nil
}

func (welfordReducer) Correct(result, p float64) float64 { return result }

// countingPlain is welfordReducer counting the states it is asked for
// and the values it is handed to fold and to remove.
type countingPlain struct {
	welfordReducer
	inits, updated, removed *atomic.Int64
}

func (r countingPlain) Initialize(key string) (mr.State, error) {
	r.inits.Add(1)
	return r.welfordReducer.Initialize(key)
}

func (r countingPlain) Update(state mr.State, values []float64) (mr.State, error) {
	r.updated.Add(int64(len(values)))
	return r.welfordReducer.Update(state, values)
}

func (r countingPlain) Remove(state mr.State, values []float64) error {
	r.removed.Add(int64(len(values)))
	return r.welfordReducer.Remove(state, values)
}

// TestMaintainerInitializesOnceThenUpdates: a plain reducer — neither
// lanes nor counts — read by two statistics of different B is asked for
// one empty state per (resample, reading statistic), in the first grow
// only, and every value a grow draws or a resize adds reaches Update:
// the first grow's n′ per state, and every state operation the
// maintainer counts as either an Update or a Remove value.
func TestMaintainerInitializesOnceThenUpdates(t *testing.T) {
	const b0, b1 = 7, 4
	for _, par := range []int{1, 3} {
		var inits, updated, removed atomic.Int64
		red := countingPlain{inits: &inits, updated: &updated, removed: &removed}
		m, err := New(Config{Reducer: red, B: b0, Seed: 11, Parallelism: par}, Stat{Reducer: red, Key: "k1", B: b1})
		if err != nil {
			t.Fatal(err)
		}
		for g, n := range []int{300, 200, 500} {
			if err := m.Grow(sampleData(n, uint64(40+g))); err != nil {
				t.Fatal(err)
			}
			if got := inits.Load(); got != b0+b1 {
				t.Fatalf("Parallelism %d, after grow %d: %d states initialized, want %d", par, g+1, got, b0+b1)
			}
			if g == 0 && (updated.Load() != int64((b0+b1)*n) || removed.Load() != 0) {
				t.Fatalf("Parallelism %d: the first grow updated %d and removed %d values, want %d and 0",
					par, updated.Load(), removed.Load(), (b0+b1)*n)
			}
			if got, want := updated.Load()+removed.Load(), m.Updates(); got != want {
				t.Fatalf("Parallelism %d, after grow %d: %d values reached Update or Remove, the maintainer counts %d",
					par, g+1, got, want)
			}
		}
		if removed.Load() == 0 {
			t.Fatalf("Parallelism %d: no resize deleted a value, so Remove went unexercised", par)
		}
	}
}

func sampleData(n int, seed uint64) []float64 {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
	if err != nil {
		panic(err)
	}
	return xs
}

func TestRetainedSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		k, err := RetainedSize(rng, 100, 150)
		if err != nil {
			t.Fatal(err)
		}
		if k < 0 || k > 150 {
			t.Fatalf("retained size %d out of [0,150]", k)
		}
	}
	if _, err := RetainedSize(rng, 10, 5); err == nil {
		t.Fatal("n > n' should error")
	}
	if k, err := RetainedSize(rng, 0, 0); err != nil || k != 0 {
		t.Fatalf("empty case = %d, %v", k, err)
	}
}

func TestRetainedSizeMean(t *testing.T) {
	// E[|b'_s|] = n'·(n/n') = n.
	rng := rand.New(rand.NewPCG(3, 4))
	const n, nPrime, trials = 1000, 2000, 2000
	var sum float64
	for i := 0; i < trials; i++ {
		k, err := RetainedSize(rng, n, nPrime)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(k)
	}
	mean := sum / trials
	if math.Abs(mean-n) > 3 {
		t.Fatalf("mean retained = %v, want ≈%d", mean, n)
	}
}

func TestMaintainerConfigValidation(t *testing.T) {
	if _, err := New(Config{B: 10}); err == nil {
		t.Fatal("missing reducer should error")
	}
	if _, err := New(Config{Reducer: welfordReducer{}, B: 1}); err == nil {
		t.Fatal("B=1 should error")
	}
}

func TestMaintainerFirstGrow(t *testing.T) {
	m, err := New(Config{Reducer: welfordReducer{}, B: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(sampleData(500, 1)); err != nil {
		t.Fatal(err)
	}
	if m.N() != 500 {
		t.Fatalf("n=%d", m.N())
	}
	for _, sz := range m.ResampleSizes() {
		if sz != 500 {
			t.Fatalf("resample size %d, want 500", sz)
		}
	}
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 20 {
		t.Fatalf("got %d values", len(vals))
	}
}

func TestMaintainerGrowKeepsSizesExact(t *testing.T) {
	m, err := New(Config{Reducer: welfordReducer{}, B: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{200, 200, 400, 800}
	total := 0
	for gi, sz := range sizes {
		if err := m.Grow(sampleData(sz, uint64(gi+10))); err != nil {
			t.Fatal(err)
		}
		total += sz
		if m.N() != total {
			t.Fatalf("after gen %d: N=%d want %d", gi+1, m.N(), total)
		}
		for ri, rs := range m.ResampleSizes() {
			if rs != total {
				t.Fatalf("gen %d resample %d size %d, want %d", gi+1, ri, rs, total)
			}
		}
	}
}

func TestMaintainerStateMatchesItems(t *testing.T) {
	// Invariant: after arbitrary grows, each state's mean equals the mean
	// of the items actually in its resample: its parts and its pending
	// draws.
	m, err := New(Config{Reducer: welfordReducer{}, B: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for gi, sz := range []int{100, 150, 250} {
		if err := m.Grow(sampleData(sz, uint64(gi+50))); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.resamples {
		all := slices.Clone(r.drawn)
		for _, p := range r.parts {
			all = append(all, p.Items()...)
		}
		want, _ := stats.Mean(all)
		if math.Abs(vals[i]-want) > 1e-8 {
			t.Fatalf("resample %d state mean %v != item mean %v", i, vals[i], want)
		}
	}
}

// resultsCV is the coefficient of variation of m's result distribution.
func resultsCV(t *testing.T, m *Maintainer) float64 {
	t.Helper()
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	cv, err := stats.CV(vals)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

func TestMaintainerCVDropsAsSampleGrows(t *testing.T) {
	m, err := New(Config{Reducer: welfordReducer{}, B: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(sampleData(100, 1)); err != nil {
		t.Fatal(err)
	}
	cvSmall := resultsCV(t, m)
	for i := 0; i < 5; i++ {
		if err := m.Grow(sampleData(600, uint64(i+2))); err != nil {
			t.Fatal(err)
		}
	}
	cvBig := resultsCV(t, m)
	if cvBig >= cvSmall {
		t.Fatalf("cv did not drop: %v → %v", cvSmall, cvBig)
	}
}

func TestMaintainerEstimateAccuracy(t *testing.T) {
	// The maintained bootstrap estimate must track the true mean of the
	// accumulated sample.
	m, err := New(Config{Reducer: welfordReducer{}, B: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for i := 0; i < 4; i++ {
		d := sampleData(500, uint64(i+100))
		all = append(all, d...)
		if err := m.Grow(d); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	est, _ := stats.Mean(vals)
	truth, _ := stats.Mean(all)
	sd, _ := stats.StdDev(all)
	se := sd / math.Sqrt(float64(len(all)))
	if math.Abs(est-truth) > 5*se {
		t.Fatalf("estimate %v vs sample mean %v (se %v)", est, truth, se)
	}
}

func TestMaintainerSketchAvoidsDiskIO(t *testing.T) {
	// With the default sketch constant, √n-scale deletions should cost no
	// disk seeks across a realistic growth schedule (the point of §4.1).
	var metrics simcost.Metrics
	m, err := New(Config{Reducer: welfordReducer{}, B: 10, Seed: 10, Metrics: &metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(sampleData(2000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Grow(sampleData(2000, 2)); err != nil {
		t.Fatal(err)
	}
	s := metrics.Snapshot()
	if s.DiskSeeks > 4 {
		t.Fatalf("delta maintenance hit disk %d times; sketches should absorb it (%v)", s.DiskSeeks, s)
	}
}

func TestMaintainerGrowValidation(t *testing.T) {
	m, _ := New(Config{Reducer: welfordReducer{}, B: 4, Seed: 1})
	if err := m.Grow(nil); err == nil {
		t.Fatal("empty delta should error")
	}
	if _, err := m.Results(); err == nil {
		t.Fatal("Results before any Grow should error")
	}
}

func TestNaiveMaintainerMatchesSemantics(t *testing.T) {
	m, err := NewNaive(Config{Reducer: welfordReducer{}, B: 30, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for i := 0; i < 3; i++ {
		d := sampleData(400, uint64(i+200))
		all = append(all, d...)
		if err := m.Grow(d); err != nil {
			t.Fatal(err)
		}
	}
	if m.N() != 1200 {
		t.Fatalf("N = %d", m.N())
	}
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	est, _ := stats.Mean(vals)
	truth, _ := stats.Mean(all)
	sd, _ := stats.StdDev(all)
	if math.Abs(est-truth) > 5*sd/math.Sqrt(float64(len(all))) {
		t.Fatalf("naive estimate %v vs %v", est, truth)
	}
	if _, err := stats.CV(vals); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveValidation(t *testing.T) {
	if _, err := NewNaive(Config{B: 5}); err == nil {
		t.Fatal("missing reducer should error")
	}
	if _, err := NewNaive(Config{Reducer: welfordReducer{}, B: 1}); err == nil {
		t.Fatal("B=1 should error")
	}
	m, _ := NewNaive(Config{Reducer: welfordReducer{}, B: 4, Seed: 1})
	if err := m.Grow(nil); err == nil {
		t.Fatal("empty delta should error")
	}
	if _, err := m.Results(); err == nil {
		t.Fatal("Results before Grow should error")
	}
}

func TestDeltaDoesFarLessWorkThanNaive(t *testing.T) {
	// The Fig. 10 contrast in work terms: growing a sample k times, the
	// optimized maintainer performs ~B·(n_total + k·O(√n)) updates while
	// the naive one performs ~B·Σ n_i = O(B·k·n) updates.
	const B = 20
	opt, err := New(Config{Reducer: welfordReducer{}, B: B, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewNaive(Config{Reducer: welfordReducer{}, B: B, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d := sampleData(1000, uint64(i+300))
		if err := opt.Grow(d); err != nil {
			t.Fatal(err)
		}
		if err := naive.Grow(d); err != nil {
			t.Fatal(err)
		}
	}
	if opt.Updates() >= naive.Updates()/2 {
		t.Fatalf("optimized updates %d not far below naive %d", opt.Updates(), naive.Updates())
	}
}
