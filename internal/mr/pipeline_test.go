package mr

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestPipelinedSumWithTermination(t *testing.T) {
	e, m := newTestEngine(t, 3)
	ctrl := &Controller{}
	var sum atomic.Int64
	job := &StreamJob{
		Name:        "pipe-sum",
		NumMappers:  3,
		NumReducers: 2,
		Control:     ctrl,
		MapTask: func(ctx *MapStream, idx int) error {
			// Long-lived mapper: emit batches until terminated.
			for batch := 0; ; batch++ {
				if ctx.Terminated() {
					return nil
				}
				for i := 0; i < 10; i++ {
					ctx.Emit(fmt.Sprintf("k%d", i%4), 1)
				}
				if batch > 1000 {
					return fmt.Errorf("termination never arrived")
				}
			}
		},
		ReduceTask: func(part int, in <-chan KV) error {
			for kv := range in {
				sum.Add(int64(kv.Value.(int)))
				if sum.Load() >= 300 {
					ctrl.Terminate() // reducer-side feedback, as in EARL
				}
			}
			return nil
		},
	}
	res, err := e.RunPipelined(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedMappers) != 0 {
		t.Fatalf("unexpected failures: %v", res.MapperErrs)
	}
	if sum.Load() < 300 {
		t.Fatalf("sum = %d, want ≥ 300", sum.Load())
	}
	if m.Snapshot().MapTasks != 3 || m.Snapshot().ReduceTasks != 2 {
		t.Fatalf("task counts = %d/%d", m.Snapshot().MapTasks, m.Snapshot().ReduceTasks)
	}
}

func TestPipelinedMapFailureDoesNotFailJob(t *testing.T) {
	e, _ := newTestEngine(t, 3)
	e.Fault = FaultFunc(func(ti TaskInfo) bool {
		return ti.Kind == MapTask && ti.Index == 1
	})
	var got atomic.Int64
	job := &StreamJob{
		Name:        "lossy",
		NumMappers:  3,
		NumReducers: 1,
		MapTask: func(ctx *MapStream, idx int) error {
			for i := 0; i < 5; i++ {
				ctx.Emit("k", 1)
			}
			return nil
		},
		ReduceTask: func(part int, in <-chan KV) error {
			for range in {
				got.Add(1)
			}
			return nil
		},
	}
	res, err := e.RunPipelined(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedMappers) != 1 || res.FailedMappers[0] != 1 {
		t.Fatalf("FailedMappers = %v", res.FailedMappers)
	}
	// Two surviving mappers delivered their data — EARL finishes on it.
	if got.Load() != 10 {
		t.Fatalf("records = %d, want 10", got.Load())
	}
}

func TestPipelinedReduceFailureFailsJob(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	e.Fault = FaultFunc(func(ti TaskInfo) bool { return ti.Kind == ReduceTask })
	job := &StreamJob{
		Name:       "red-dead",
		NumMappers: 1,
		MapTask: func(ctx *MapStream, idx int) error {
			ctx.Emit("k", 1)
			return nil
		},
		ReduceTask: func(part int, in <-chan KV) error {
			for range in {
			}
			return nil
		},
	}
	if _, err := e.RunPipelined(job); err == nil {
		t.Fatal("reduce failure should fail the job")
	}
}

func TestPipelinedValidation(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	if _, err := e.RunPipelined(&StreamJob{Name: "nil-tasks"}); err == nil {
		t.Fatal("missing tasks should error")
	}
}

func TestPipelinedMapperSeesNodeDeath(t *testing.T) {
	e, _ := newTestEngine(t, 1)
	started := make(chan struct{})
	job := &StreamJob{
		Name:       "node-death",
		NumMappers: 1,
		MapTask: func(ctx *MapStream, idx int) error {
			close(started)
			deadline := time.After(5 * time.Second)
			for {
				select {
				case <-deadline:
					return fmt.Errorf("node death never observed")
				default:
				}
				if ctx.Terminated() {
					if !ctx.NodeAlive() {
						return fmt.Errorf("node died") // EARL records the loss
					}
					return nil
				}
			}
		},
		ReduceTask: func(part int, in <-chan KV) error {
			for range in {
			}
			return nil
		},
	}
	go func() {
		<-started
		e.Cluster.KillNode(0)
	}()
	res, err := e.RunPipelined(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedMappers) != 1 {
		t.Fatalf("expected the mapper to report node death, got %v", res.FailedMappers)
	}
}

// TestConcurrentPipelinedJobsOutnumberNodes: pipelined mappers live for
// the whole run and wait on each other, so runs that together have more
// mappers than the cluster has nodes must still all start. Three
// 4-mapper jobs share one node, and every map task waits until all
// twelve have started; a cluster that made a task wait for capacity
// would hang here, so the wait gives up after a deadline and the test
// fails instead.
func TestConcurrentPipelinedJobsOutnumberNodes(t *testing.T) {
	const jobs, mappers = 3, 4
	e, _ := newTestEngine(t, 1)
	var started atomic.Int32
	allStarted, giveUp := make(chan struct{}), make(chan struct{})
	errs := make(chan error, jobs)
	for j := range jobs {
		job := &StreamJob{
			Name:       fmt.Sprintf("crowd%d", j),
			NumMappers: mappers,
			MapTask: func(ctx *MapStream, idx int) error {
				if started.Add(1) == jobs*mappers {
					close(allStarted)
				}
				select {
				case <-allStarted:
					ctx.Emit("k", 1)
					return nil
				case <-giveUp:
					return fmt.Errorf("gave up waiting for the other map tasks")
				}
			},
			ReduceTask: func(part int, in <-chan KV) error {
				for range in {
				}
				return nil
			},
		}
		go func() {
			res, err := e.RunPipelined(job)
			if err == nil && len(res.FailedMappers) > 0 {
				err = fmt.Errorf("%s: mappers %v failed: %v", job.Name, res.FailedMappers, res.MapperErrs)
			}
			errs <- err
		}()
	}
	deadline := time.After(10 * time.Second)
	for range jobs {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			close(giveUp)
			t.Fatalf("%d of %d map tasks started within 10 s", started.Load(), jobs*mappers)
		}
	}
}
