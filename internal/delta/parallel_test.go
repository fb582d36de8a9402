package delta

import (
	"runtime"
	"testing"
)

// growSchedule applies a fixed growth schedule and returns the final
// result distribution.
func growSchedule(t *testing.T, cfg Config) []float64 {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for gi, sz := range []int{300, 300, 600, 1200} {
		if err := m.Grow(sampleData(sz, uint64(gi+700))); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestMaintainerDeterministicAcrossParallelism: every resample owns its
// rng stream, so the full grow schedule must produce bit-identical
// result distributions at parallelism 1, 4 and GOMAXPROCS.
func TestMaintainerDeterministicAcrossParallelism(t *testing.T) {
	base := Config{Reducer: welfordReducer{}, B: 25, Seed: 42}
	var ref []float64
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Parallelism = par
		vals := growSchedule(t, cfg)
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
}

func TestNaiveMaintainerDeterministicAcrossParallelism(t *testing.T) {
	var ref []float64
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		m, err := NewNaive(Config{Reducer: welfordReducer{}, B: 25, Seed: 42, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for gi, sz := range []int{400, 800} {
			if err := m.Grow(sampleData(sz, uint64(gi+800))); err != nil {
				t.Fatal(err)
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
				t.Fatalf("parallelism %d: Results()[%d] = %v, want %v", par, i, vals[i], ref[i])
			}
		}
	}
}

// TestMaintainerParallelInvariants re-checks the core §4.1 invariants
// (sizes, state/item agreement) with the worker pool engaged.
func TestMaintainerParallelInvariants(t *testing.T) {
	m, err := New(Config{Reducer: welfordReducer{}, B: 12, Seed: 19, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for gi, sz := range []int{250, 250, 500} {
		if err := m.Grow(sampleData(sz, uint64(gi+900))); err != nil {
			t.Fatal(err)
		}
		total += sz
	}
	for ri, rs := range m.ResampleSizes() {
		if rs != total {
			t.Fatalf("resample %d size %d, want %d", ri, rs, total)
		}
	}
	vals, err := m.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 12 {
		t.Fatalf("got %d values", len(vals))
	}
}
