package mr

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/simcost"
)

func newTestEngine(t *testing.T, nodes int) (*Engine, *simcost.Metrics) {
	t.Helper()
	var m simcost.Metrics
	cl, err := NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{Cluster: cl, Metrics: &m}, &m
}

// drain is a reduce task that consumes its input and keeps nothing.
func drain(part int, in <-chan KV) error {
	for range in {
	}
	return nil
}

// emitOne is a map task that emits one record.
func emitOne(ctx *MapStream, idx int) error {
	ctx.Emit("k", 1)
	return nil
}

func TestHashPartitionStableAndInRange(t *testing.T) {
	for r := 1; r <= 7; r++ {
		for i := 0; i < 100; i++ {
			k := strconv.Itoa(i)
			p := HashPartition(k, r)
			if p < 0 || p >= r {
				t.Fatalf("partition %d out of range [0,%d)", p, r)
			}
			if p != HashPartition(k, r) {
				t.Fatal("partition not stable")
			}
		}
	}
}

func TestValueSize(t *testing.T) {
	if ValueSize("hello") != 5 {
		t.Fatal("string size")
	}
	if ValueSize([]byte{1, 2, 3}) != 3 {
		t.Fatal("bytes size")
	}
	if ValueSize([]float64{1, 2}) != 16 {
		t.Fatal("float slice size")
	}
	if ValueSize(3.14) != 8 {
		t.Fatal("scalar size")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("0 nodes should error")
	}
}

func TestClusterKillRevive(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if c.NodeAlive(1) {
		t.Fatal("node 1 should be dead")
	}
	if !c.NodeAlive(0) || !c.NodeAlive(2) {
		t.Fatal("nodes 0 and 2 should stay alive")
	}
	if err := c.ReviveNode(1); err != nil {
		t.Fatal(err)
	}
	if !c.NodeAlive(1) {
		t.Fatal("node 1 should be alive")
	}
	if err := c.KillNode(99); err == nil {
		t.Fatal("bad id should error")
	}
	if c.NodeAlive(99) {
		t.Fatal("unknown node must read dead")
	}
}

// TestRunWithAllNodesDead: a pipelined job on a cluster with no live
// node fails to place its tasks.
func TestRunWithAllNodesDead(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	e.Cluster.KillNode(0)
	e.Cluster.KillNode(1)
	job := &StreamJob{Name: "dead", NumMappers: 1, MapTask: emitOne, ReduceTask: drain}
	if _, err := e.RunPipelined(job); err == nil {
		t.Fatal("job on dead cluster should fail")
	}
}

// TestEngineDefaults: nothing defaults an engine's cluster, and a nil
// ledger charges nothing and runs the same job.
func TestEngineDefaults(t *testing.T) {
	job := &StreamJob{Name: "defaults", MapTask: emitOne, ReduceTask: drain}
	if _, err := (&Engine{}).RunPipelined(job); err == nil {
		t.Fatal("engine without a Cluster ran a job")
	}
	cl, err := NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Cluster: cl}).RunPipelined(job); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsCharged: a pipelined job charges its startup, every task it
// places, every record its mappers emit with its key and value bytes,
// and every record its reducers receive.
func TestMetricsCharged(t *testing.T) {
	e, m := newTestEngine(t, 3)
	job := &StreamJob{Name: "metrics", NumMappers: 2, NumReducers: 3, MapTask: emitOne, ReduceTask: drain}
	if _, err := e.RunPipelined(job); err != nil {
		t.Fatal(err)
	}
	want := simcost.Snapshot{JobStartups: 1, MapTasks: 2, ReduceTasks: 3, RecordsMapped: 2, BytesShuffled: 2 * (1 + 8), RecordsReduced: 2}
	if s := m.Snapshot(); s != want {
		t.Fatalf("charged %+v, want %+v", s, want)
	}
}

// TestMapperErrorPropagates: a map task's error lands in the result
// with its cause, and the job still succeeds on the other mappers.
func TestMapperErrorPropagates(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	cause := errors.New("bad record")
	job := &StreamJob{
		Name:       "bad-map",
		NumMappers: 2,
		MapTask: func(ctx *MapStream, idx int) error {
			if idx == 1 {
				return fmt.Errorf("parse: %w", cause)
			}
			return emitOne(ctx, idx)
		},
		ReduceTask: drain,
	}
	res, err := e.RunPipelined(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedMappers) != 1 || res.FailedMappers[0] != 1 || !errors.Is(res.MapperErrs[0], cause) {
		t.Fatalf("failed mappers %v, errors %v; want mapper 1 with the cause", res.FailedMappers, res.MapperErrs)
	}
}

// TestReducerErrorPropagates: a reduce task's error fails the job and
// keeps its cause under errors.Is.
func TestReducerErrorPropagates(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	cause := errors.New("statistic failed")
	job := &StreamJob{
		Name:    "bad-reduce",
		MapTask: emitOne,
		ReduceTask: func(part int, in <-chan KV) error {
			<-in
			return fmt.Errorf("reduce: %w", cause)
		},
	}
	if _, err := e.RunPipelined(job); !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the reducer's cause", err)
	}
}
