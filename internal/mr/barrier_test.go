package mr

import (
	"fmt"
	"math"
	"testing"
	"time"

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

// TestRoundBarrierDecisions drives the barrier with publications alone —
// no goroutines — and checks when a round's decision is taken and from
// which cvs. It covers what the error-file mailbox tests covered (a
// missing partition holds the round, NaN is skipped, all-NaN expands,
// the slowest partition sets the round) plus the case the mailbox got
// wrong: a partition running ahead must not leak a later round's cv into
// an earlier round's decision.
func TestRoundBarrierDecisions(t *testing.T) {
	type pub struct {
		part int
		cv   float64
	}
	for _, tc := range []struct {
		name       string
		parts      int
		pubs       []pub
		wantTarget int64
		wantDone   bool
		wantRuled  int
	}{
		{"missing partition: no decision", 2, []pub{{0, 0.01}}, 100, false, 0},
		{"round completes on the last publication", 2, []pub{{0, 0.01}, {1, 0.03}}, 100, true, 1},
		{"average above sigma expands", 2, []pub{{0, 0.10}, {1, 0.20}}, 200, false, 1},
		{"NaN holds its place but not the average", 3, []pub{{0, 0.04}, {1, nan}, {2, 0.05}}, 100, true, 1},
		{"all NaN expands", 2, []pub{{0, nan}, {1, nan}}, 200, false, 1},
		{"the slowest partition sets the round", 2, []pub{{0, 0.2}, {0, 0.2}, {0, 0.2}}, 100, false, 0},
		// A is at round 2 (cv 0.01) before B publishes round 1 (0.08).
		// The mailbox held only A's latest file and averaged across
		// rounds — (0.01+0.08)/2 = 0.045, a stop — where round 1's own
		// mean is (0.20+0.08)/2 = 0.14: expand.
		{"a partition ahead does not alter the earlier round", 2, []pub{{0, 0.20}, {0, 0.01}, {1, 0.08}}, 200, false, 1},
		{"both rounds are ruled on in order once complete", 2, []pub{{0, 0.20}, {0, 0.01}, {1, 0.08}, {1, 0.02}}, 200, true, 2},
	} {
		c := NewController(Feedback{Mappers: 2, Partitions: tc.parts, Sigma: 0.05, InitialN: 100, MaxN: 1000})
		for _, p := range tc.pubs {
			c.Publish(p.part, p.cv)
		}
		if got := c.ExpansionTarget(); got != tc.wantTarget {
			t.Errorf("%s: target = %d, want %d", tc.name, got, tc.wantTarget)
		}
		if got := c.Terminated(); got != tc.wantDone {
			t.Errorf("%s: terminated = %v, want %v", tc.name, got, tc.wantDone)
		}
		if c.decided != tc.wantRuled {
			t.Errorf("%s: rounds ruled on = %d, want %d", tc.name, c.decided, tc.wantRuled)
		}
	}
}

// TestRoundBarrierChargesModelledExchange: the paper's error-file
// exchange stays in the cost model, once per completed round.
func TestRoundBarrierChargesModelledExchange(t *testing.T) {
	m := &simcost.Metrics{}
	c := NewController(Feedback{Mappers: 4, Partitions: 2, Sigma: 0.05, InitialN: 100, MaxN: 1000, Metrics: m})
	c.Publish(0, 0.2)
	if got := m.Snapshot(); got != (simcost.Snapshot{}) {
		t.Fatalf("charged before the round completed: %v", got)
	}
	c.Publish(1, 0.2)
	want := simcost.Snapshot{
		BytesWritten: 2 * errorFileBytes * errorFileReplicas,
		DiskSeeks:    4 * 2,
		BytesRead:    4 * 2 * errorFileBytes,
	}
	if got := m.Snapshot(); got != want {
		t.Fatalf("one round charged %v, want %v", got, want)
	}
}

// TestRoundBarrierDelivery walks one partition pair through the
// barrier's events in a single goroutine: a round is handed out exactly
// when every mapper has settled and the shuffle has drained, and the run
// ends itself when nothing more can happen.
func TestRoundBarrierDelivery(t *testing.T) {
	token := func(c *Controller, p int) bool {
		select {
		case <-c.Ready(p):
			return true
		default:
			return false
		}
	}
	c := NewController(Feedback{Mappers: 2, Partitions: 2, Sigma: 0.05, InitialN: 10, MaxN: 40})
	c.Sent(0, 5)
	c.Received(0, 5)
	if token(c, 0) {
		t.Fatal("round handed out while mapper 1 still owes its share")
	}
	c.Sent(1, 5)
	if token(c, 0) {
		t.Fatal("round handed out with records still in the shuffle")
	}
	c.Received(0, 5)
	// Target met: both partitions fold — the one without deltas too, so
	// the round can complete — and each exactly once.
	if !token(c, 0) || !token(c, 1) {
		t.Fatal("target met but a partition was not told")
	}
	c.Publish(0, 0.2)
	if token(c, 0) {
		t.Fatal("a round must be handed out once per target")
	}
	if c.Terminated() {
		t.Fatal("run ended while partition 1 is folding its (empty) round")
	}
	c.Publish(1, nan)
	if got := c.ExpansionTarget(); got != 20 {
		t.Fatalf("target = %d after round 1, want 20", got)
	}

	// Round 2: mapper 1 dies having sent nothing more. Its share is
	// missing, so the target cannot be met; the partition holding deltas
	// folds what arrived, the one without does not mint an empty round.
	c.Sent(0, 5)
	c.Received(0, 5)
	if token(c, 0) {
		t.Fatal("round handed out while mapper 1 is neither settled nor dry")
	}
	c.Dry(1)
	if !token(c, 0) || token(c, 1) {
		t.Fatal("after the death only the partition with deltas has a round")
	}
	if c.Terminated() {
		t.Fatal("run ended while partition 0 is folding")
	}
	c.Publish(0, 0.2)
	// Partition 1 never publishes round 2, so no decision is possible:
	// all settled, drained, nothing held — the §3.4 exit.
	if !c.Terminated() {
		t.Fatal("run did not end once no progress was possible")
	}
	if c.Rounds() != 2 || c.decided != 1 {
		t.Fatalf("rounds = %d (ruled %d), want 2 (1)", c.Rounds(), c.decided)
	}
}

// TestRoundBarrierAllDry: sources that run out below the target end the
// run once what they delivered has been folded.
func TestRoundBarrierAllDry(t *testing.T) {
	c := NewController(Feedback{Mappers: 2, Partitions: 1, Sigma: 0.05, InitialN: 100, MaxN: 1000})
	c.Sent(0, 3)
	c.Dry(0)
	c.Dry(1)
	c.Received(0, 3)
	select {
	case <-c.Ready(0):
	default:
		t.Fatal("the short round was not handed out")
	}
	c.Publish(0, 0.5)
	if got := c.ExpansionTarget(); got != 200 {
		t.Fatalf("target = %d, want 200 (the policy still expands)", got)
	}
	if !c.Terminated() {
		t.Fatal("all sources dry and everything folded: the run must end")
	}
}

// TestAwaitQuotaWakes: a map task parked between rounds is released by
// a target rise, by termination, and by the death of its node.
func TestAwaitQuotaWakes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wake   func(e *Engine, c *Controller)
		wantOK bool
	}{
		{"target rise", func(_ *Engine, c *Controller) { c.Publish(0, 0.2) }, true}, // round 1 misses σ: the target doubles
		{"terminate", func(_ *Engine, c *Controller) { c.Terminate() }, false},
		{"node death", func(e *Engine, _ *Controller) { e.Cluster.KillNode(0) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := newTestEngine(t, 1)
			ctrl := NewController(Feedback{Mappers: 1, Partitions: 1, Sigma: 0.05, InitialN: 10, MaxN: 40})
			parked := make(chan struct{})
			job := &StreamJob{
				Name:       "park",
				NumMappers: 1,
				Control:    ctrl,
				MapTask: func(ctx *MapStream, idx int) error {
					if owed, ok := ctx.AwaitQuota(idx); !ok || owed != 10 {
						return fmt.Errorf("first quota = %d, %v", owed, ok)
					}
					ctrl.Sent(idx, 10) // nothing emitted: the test only parks
					close(parked)
					owed, ok := ctx.AwaitQuota(idx)
					if ok != tc.wantOK || (ok && owed != 10) {
						t.Errorf("woke with (%d, %v), want ok=%v", owed, ok, tc.wantOK)
					}
					ctrl.Terminate()
					return nil
				},
				ReduceTask: func(part int, in <-chan KV) error {
					for range in {
					}
					return nil
				},
			}
			go func() {
				<-parked
				time.Sleep(2 * time.Millisecond) // let the task reach its select
				tc.wake(e, ctrl)
			}()
			if _, err := e.RunPipelined(job); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelinedReduceErrorStopsMappers: a reducer that fails mid-run
// ends the job instead of leaving the mappers parked on the barrier.
func TestPipelinedReduceErrorStopsMappers(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	ctrl := NewController(Feedback{Mappers: 2, Partitions: 1, Sigma: 0.05, InitialN: 4000, MaxN: 8000})
	job := &StreamJob{
		Name:       "reduce-error",
		NumMappers: 2,
		Control:    ctrl,
		MapTask: func(ctx *MapStream, idx int) error {
			for {
				owed, ok := ctx.AwaitQuota(idx)
				if !ok {
					return nil
				}
				for i := int64(0); i < owed; i++ {
					ctx.Emit("k", 1.0)
				}
				ctrl.Sent(idx, int(owed))
			}
		},
		ReduceTask: func(part int, in <-chan KV) error {
			<-in
			return fmt.Errorf("sink failed")
		},
	}
	if _, err := e.RunPipelined(job); err == nil {
		t.Fatal("reduce failure should fail the job")
	}
}
