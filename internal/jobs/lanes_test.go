package jobs

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mr"
)

// TestUpdateLanesEqualsUpdateAllLoop holds every named reducer to the
// lane contract: mr.UpdateLanes over a group of states leaves each one
// bit for bit where a loop of Update over all of them does — on
// Finalize, and again after removing values (the removal arithmetic reads the whole
// accumulator, so it would expose a state that merely finalizes alike)
// — for 1…9 states, ragged batch lengths and empty lanes.
func TestUpdateLanesEqualsUpdateAllLoop(t *testing.T) {
	names := []string{"mean", "sum", "count", "median", "variance", "stddev", "proportion", "p95", "q0.25"}
	for _, name := range names {
		job, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for lanes := 1; lanes <= 9; lanes++ {
			for _, shape := range []string{"equal", "ragged", "empty-lane", "all-empty"} {
				rng := rand.New(rand.NewPCG(uint64(lanes), 0xfeed))
				draw := func(n int) []float64 {
					xs := make([]float64, n)
					for i := range xs {
						xs[i] = math.Round(rng.NormFloat64()*15+50) / 4 // ties, so removals always find their value
					}
					return xs
				}
				batches := make([][]float64, lanes)
				got := make([]mr.State, lanes)
				want := make([]mr.State, lanes)
				for k := range batches {
					n := 40
					switch {
					case shape == "ragged":
						n = 1 + rng.IntN(80)
					case shape == "empty-lane" && k == lanes/2, shape == "all-empty":
						n = 0
					}
					batches[k] = draw(n)
					seedItems := draw(5 + k)
					got[k], want[k] = fold(t, job.Reducer, seedItems), fold(t, job.Reducer, seedItems)
				}
				if err := mr.UpdateLanes(job.Reducer, got, batches); err != nil {
					t.Fatal(err)
				}
				for k := range want {
					if want[k], err = job.Reducer.Update(want[k], batches[k]); err != nil {
						t.Fatal(err)
					}
				}
				where := fmt.Sprintf("%s lanes=%d %s", name, lanes, shape)
				sameFinalize(t, where, job.Reducer, got, want)
				for k := range got {
					rm := batches[k][:len(batches[k])/3]
					for _, st := range []mr.State{got[k], want[k]} {
						if err := job.Reducer.Remove(st, rm); err != nil {
							t.Fatalf("%s lane %d: Remove: %v", where, k, err)
						}
					}
				}
				sameFinalize(t, where+" after remove", job.Reducer, got, want)
			}
		}
	}
}

func sameFinalize(t *testing.T, where string, red mr.IncrementalReducer, got, want []mr.State) {
	t.Helper()
	for k := range got {
		g, err := red.Finalize(got[k])
		if err != nil {
			t.Fatal(err)
		}
		w, err := red.Finalize(want[k])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s lane %d: %v (%#x), want %v (%#x)", where, k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

func TestUpdateLanesRejectsForeignState(t *testing.T) {
	median, mean := Median(), Mean()
	st := fold(t, median.Reducer, []float64{1})
	if err := mr.UpdateLanes(mean.Reducer, []mr.State{st}, [][]float64{{2}}); !errors.Is(err, mr.ErrBadState) {
		t.Fatalf("err = %v, want ErrBadState", err)
	}
}
