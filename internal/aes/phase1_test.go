package aes

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/stats"
)

// estimateBOneAtATime is the reference phase 1: the loop as it stood
// before resamples were drawn in groups — one rand.IntN per item, one
// empty state per resample folded with one Update, nothing drawn past
// the stopping B.
func estimateBOneAtATime(pilot []float64, cfg Config) (int, []float64, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x71374491428a2f98))
	values := make([]float64, 0, cfg.MaxB)
	buf := make([]float64, len(pilot))
	drawValue := func() error {
		for i := range buf {
			buf[i] = pilot[rng.IntN(len(pilot))]
		}
		st, err := cfg.Reducer.Initialize(cfg.Key)
		if err == nil {
			st, err = cfg.Reducer.Update(st, buf)
		}
		if err != nil {
			return err
		}
		v, err := cfg.Reducer.Finalize(st)
		if err != nil {
			return err
		}
		values = append(values, v)
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := drawValue(); err != nil {
			return 0, nil, err
		}
	}
	prev, err := stats.CV(values)
	if err != nil {
		return 0, nil, err
	}
	trace := []float64{prev}
	stable := 0
	for b := 3; b <= cfg.MaxB; b++ {
		if err := drawValue(); err != nil {
			return 0, nil, err
		}
		cur, err := stats.CV(values)
		if err != nil {
			return 0, nil, err
		}
		trace = append(trace, cur)
		scale := math.Abs(cur)
		if scale == 0 {
			scale = 1e-12
		}
		if math.Abs(cur-prev)/scale < cfg.Tau {
			stable++
			if stable >= stableSteps {
				return b, trace, nil
			}
		} else {
			stable = 0
		}
		prev = cur
	}
	return cfg.MaxB, trace, nil
}

// countingReducer hides every optional capability of the reducer it
// wraps — it is an mr.IncrementalReducer and nothing more — and counts
// the resamples it is asked to build.
type countingReducer struct {
	mr.IncrementalReducer
	inits *int
}

func (r countingReducer) Initialize(key string) (mr.State, error) {
	*r.inits++
	return r.IncrementalReducer.Initialize(key)
}

// TestEstimateBMatchesOneAtATime holds the grouped phase 1 to the
// one-at-a-time reference — same B, same cv trace bit for bit — for
// the lane-folding moment reducers, the ranked quantiles and a reducer
// with no capability at all, over enough seeds and thresholds that the
// stopping B falls on every residue of the group width, and at MaxB
// caps on every residue, where the last group must be clipped: phase 1
// builds no resample past the cap.
func TestEstimateBMatchesOneAtATime(t *testing.T) {
	pilots := map[string][]float64{"gaussian": pilotData(1500, 3), "short": pilotData(9, 4)}
	residues := map[int]bool{}
	capped := map[int]bool{}
	for _, name := range []string{"mean", "variance", "median", "p95", "plain-mean"} {
		var red mr.IncrementalReducer
		inits := 0
		if name == "plain-mean" {
			red = countingReducer{jobs.Mean().Reducer, &inits}
		} else {
			job, err := jobs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			red = job.Reducer
		}
		_, lanes := red.(mr.LaneUpdater)
		for pname, pilot := range pilots {
			for _, tau := range []float64{0, 0.2, 0.08, 1e-9} {
				for _, maxB := range []int{0, 3, 4, 5, 6, 7, 8, 13} {
					for seed := uint64(1); seed <= 6; seed++ {
						if tau < 1e-3 && tau > 0 && maxB == 0 {
							continue // the default cap is 2/τ: a run to it would not end
						}
						cfg := Config{Reducer: red, Sigma: 0.05, Tau: tau, MaxB: maxB, Seed: seed, Key: "k"}
						where := fmt.Sprintf("%s/%s tau=%g maxB=%d seed=%d", name, pname, tau, maxB, seed)
						inits = 0
						gb, gtrace, gerr := EstimateB(pilot, cfg)
						built := inits
						wb, wtrace, werr := estimateBOneAtATime(pilot, cfg)
						if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
							t.Fatalf("%s: err %v, reference %v", where, gerr, werr)
						}
						if gb != wb || len(gtrace) != len(wtrace) {
							t.Fatalf("%s: B=%d (%d trace points), reference B=%d (%d)", where, gb, len(gtrace), wb, len(wtrace))
						}
						for i := range gtrace {
							if math.Float64bits(gtrace[i]) != math.Float64bits(wtrace[i]) {
								t.Fatalf("%s: trace[%d] = %v, reference %v", where, i, gtrace[i], wtrace[i])
							}
						}
						if name == "plain-mean" && built != gb {
							t.Fatalf("%s: a reducer without lanes built %d resamples to choose B=%d", where, built, gb)
						}
						if lanes && gerr == nil {
							full, _ := cfg.withDefaults()
							if gb == full.MaxB && len(gtrace) == gb-1 {
								capped[gb%4] = true
							}
							residues[gb%4] = true
						}
					}
				}
			}
		}
	}
	for r := 0; r < 4; r++ {
		if !residues[r] {
			t.Errorf("no lane-folded run stopped at B ≡ %d (mod 4): the sweep does not cover that group boundary", r)
		}
		if !capped[r] {
			t.Errorf("no lane-folded run reached a MaxB ≡ %d (mod 4)", r)
		}
	}
}

// clippedReducer is a LaneUpdater that counts the states it is asked
// for, to pin the clip of the last group.
type clippedReducer struct {
	mr.IncrementalReducer
	lanes mr.LaneUpdater
	inits *int
}

func (r clippedReducer) Initialize(key string) (mr.State, error) {
	*r.inits++
	return r.IncrementalReducer.Initialize(key)
}

func (r clippedReducer) UpdateLanes(states []mr.State, batches [][]float64) error {
	return r.lanes.UpdateLanes(states, batches)
}

func TestEstimateBClipsLastGroupToMaxB(t *testing.T) {
	mean := jobs.Mean().Reducer
	for _, par := range []int{1, 2} {
		for maxB := 3; maxB <= 9; maxB++ {
			inits := 0
			red := clippedReducer{mean, mean.(mr.LaneUpdater), &inits}
			// τ this small never holds for three steps: phase 1 runs to the cap.
			b, _, err := EstimateB(pilotData(400, 5), Config{Reducer: red, Sigma: 0.05, Tau: 1e-12, MaxB: maxB, Seed: 2, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if b != maxB || inits != maxB {
				t.Fatalf("MaxB=%d at parallelism %d: B=%d from %d resamples, want the cap from exactly that many", maxB, par, b, inits)
			}
		}
	}
}
