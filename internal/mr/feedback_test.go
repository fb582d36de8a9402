package mr

import (
	"math"
	"testing"

	"repro/internal/simcost"
)

var (
	nan = math.NaN()
	inf = math.Inf(1)
)

// TestFeedbackDecide pins the pure §3.3 policy.
func TestFeedbackDecide(t *testing.T) {
	f := Feedback{Sigma: 0.05, InitialN: 100, MaxN: 1000}
	for _, tc := range []struct {
		name     string
		round    int
		cvs      []float64
		target   int64
		wantNext int64
		wantStop bool
	}{
		{"mean within sigma stops", 1, []float64{0.04, 0.06}, 100, 100, true},
		{"mean above sigma doubles", 1, []float64{0.04, 0.08}, 100, 200, false},
		{"NaN partitions are skipped", 1, []float64{0.04, nan}, 100, 100, true},
		{"all NaN keeps expanding", 1, []float64{nan, nan}, 100, 200, false},
		{"+Inf keeps expanding", 1, []float64{0.01, inf}, 100, 200, false},
		{"schedule is keyed on the round", 3, []float64{0.2}, 400, 800, false},
		{"expansion is capped at MaxN", 4, []float64{0.2}, 800, 1000, false},
		{"at the cap the run stops", 5, []float64{0.2}, 1000, 1000, true},
		{"huge rounds do not overflow", 99, []float64{0.2}, 1000, 1000, true},
	} {
		next, stop := f.decide(tc.round, tc.cvs, tc.target)
		if next != tc.wantNext || stop != tc.wantStop {
			t.Errorf("%s: decide = (%d, %v), want (%d, %v)", tc.name, next, stop, tc.wantNext, tc.wantStop)
		}
	}
}

// TestRoundBarrierChargesModelledExchange: the paper's error-file
// exchange stays in the cost model, once per ruled round, and the
// ruling is decide's.
func TestRoundBarrierChargesModelledExchange(t *testing.T) {
	m := &simcost.Metrics{}
	f := Feedback{Sigma: 0.05, InitialN: 100, MaxN: 1000}
	if next, stop := f.Round(1, []float64{0.2, 0.2}, 100, 4, m); next != 200 || stop {
		t.Fatalf("Round = (%d, %v), want decide's (200, false)", next, stop)
	}
	want := simcost.Snapshot{
		BytesWritten: 2 * errorFileBytes * errorFileReplicas,
		DiskSeeks:    4 * 2,
		BytesRead:    4 * 2 * errorFileBytes,
	}
	if got := m.Snapshot(); got != want {
		t.Fatalf("one round charged %v, want %v", got, want)
	}
}
