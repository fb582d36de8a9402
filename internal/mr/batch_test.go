package mr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/simcost"
)

// wordCount pieces — the canonical MR job, used across engine tests.
type wcMapper struct{}

func (wcMapper) Map(off int64, line string, emit Emitter) error {
	for _, w := range strings.Fields(line) {
		emit.Emit(w, 1)
	}
	return nil
}

type wcReducer struct{}

func (wcReducer) Reduce(key string, values []any, emit Emitter) error {
	n := 0
	for _, v := range values {
		n += v.(int)
	}
	emit.Emit(key, n)
	return nil
}

type wcCombiner struct{}

func (wcCombiner) Combine(key string, values []any, emit Emitter) error {
	return wcReducer{}.Reduce(key, values, emit)
}

func newTestEngine(t *testing.T, nodes int) (*Engine, *dfs.FileSystem, *simcost.Metrics) {
	t.Helper()
	var m simcost.Metrics
	fsys := dfs.New(dfs.Config{BlockSize: 64, Replication: 2, DataNodes: nodes, Metrics: &m, Seed: 1})
	cl, err := NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{FS: fsys, Cluster: cl, Metrics: &m}, fsys, &m
}

// writeLines writes lines, newline-terminated, to a fresh DFS file.
func writeLines(t *testing.T, fsys *dfs.FileSystem, path string, lines ...string) {
	t.Helper()
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l + "\n")
	}
	if err := fsys.WriteFile(path, []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
}

func outputMap(res *Result) map[string]any {
	out := make(map[string]any, len(res.Output))
	for _, kv := range res.Output {
		out[kv.Key] = kv.Value
	}
	return out
}

// TestWordCountMemoryInput keeps its name from the in-memory input it
// once ran on; the same three records now come from a one-split DFS file.
func TestWordCountMemoryInput(t *testing.T) {
	e, fsys, _ := newTestEngine(t, 3)
	writeLines(t, fsys, "/in", "a b a", "b c", "a")
	job := &Job{
		Name:        "wc",
		InputPath:   "/in",
		Mapper:      wcMapper{},
		Reducer:     wcReducer{},
		NumReducers: 3,
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(res)
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("count[%s] = %v, want %d (all: %v)", k, got[k], w, got)
		}
	}
}

func TestWordCountDFSInputManySplits(t *testing.T) {
	e, fsys, _ := newTestEngine(t, 5)
	var sb strings.Builder
	want := map[string]int{}
	for i := 0; i < 500; i++ {
		w := fmt.Sprintf("w%d", i%17)
		sb.WriteString(w + "\n")
		want[w]++
	}
	if err := fsys.WriteFile("/in", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	job := &Job{
		Name:        "wc-dfs",
		InputPath:   "/in",
		SplitSize:   97, // deliberately unaligned with lines and blocks
		Mapper:      wcMapper{},
		Reducer:     wcReducer{},
		NumReducers: 4,
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(res)
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("count[%s] = %v, want %d", k, got[k], w)
		}
	}
}

func TestCombinerReducesShuffleBytes(t *testing.T) {
	input := make([]string, 200)
	for i := range input {
		input[i] = "x y z"
	}
	run := func(withCombiner bool) int64 {
		e, fsys, m := newTestEngine(t, 3)
		writeLines(t, fsys, "/in", input...)
		job := &Job{
			Name:      "wc",
			InputPath: "/in",
			SplitSize: 300, // 4 splits
			Mapper:    wcMapper{},
			Reducer:   wcReducer{},
		}
		if withCombiner {
			job.Combiner = wcCombiner{}
		}
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if got := outputMap(res); got["x"] != 200 {
			t.Fatalf("combiner changed semantics: %v", got)
		}
		return m.Snapshot().BytesShuffled
	}
	plain := run(false)
	combined := run(true)
	if combined >= plain {
		t.Fatalf("combiner did not cut shuffle: %d vs %d", combined, plain)
	}
}

func TestJobValidation(t *testing.T) {
	e, _, _ := newTestEngine(t, 2)
	cases := []*Job{
		{Name: "no-mapper", InputPath: "/a", Reducer: wcReducer{}},
		{Name: "no-reducer", InputPath: "/a", Mapper: wcMapper{}},
		{Name: "no-input", Mapper: wcMapper{}, Reducer: wcReducer{}},
	}
	for _, job := range cases {
		if _, err := e.Run(job); err == nil {
			t.Errorf("job %q should fail validation", job.Name)
		}
	}
}

func TestMapperErrorPropagates(t *testing.T) {
	e, fsys, _ := newTestEngine(t, 2)
	writeLines(t, fsys, "/in", "x")
	boom := errors.New("boom")
	job := &Job{
		Name:      "bad-map",
		InputPath: "/in",
		Mapper: MapperFunc(func(off int64, line string, emit Emitter) error {
			return boom
		}),
		Reducer: wcReducer{},
	}
	_, err := e.Run(job)
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err should carry cause: %v", err)
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	e, fsys, _ := newTestEngine(t, 2)
	writeLines(t, fsys, "/in", "x")
	job := &Job{
		Name:      "bad-reduce",
		InputPath: "/in",
		Mapper:    wcMapper{},
		Reducer: ReducerFunc(func(key string, values []any, emit Emitter) error {
			return errors.New("reduce-boom")
		}),
	}
	if _, err := e.Run(job); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
}

func TestTransientTaskFailureIsRetried(t *testing.T) {
	e, fsys, m := newTestEngine(t, 3)
	writeLines(t, fsys, "/in", "a", "b", "c", "d")
	// Fail the first two attempts of map task 0 only.
	e.Fault = FaultFunc(func(ti TaskInfo) bool {
		return ti.Kind == MapTask && ti.Index == 0 && ti.Attempt < 2
	})
	job := &Job{
		Name:      "flaky",
		InputPath: "/in",
		SplitSize: 4, // 2 splits
		Mapper:    wcMapper{},
		Reducer:   wcReducer{},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(res); got["a"] != 1 || got["d"] != 1 {
		t.Fatalf("output wrong after retries: %v", got)
	}
	if m.Snapshot().TaskRestarts != 2 {
		t.Fatalf("TaskRestarts = %d, want 2", m.Snapshot().TaskRestarts)
	}
}

func TestPermanentFailureExhaustsAttempts(t *testing.T) {
	e, fsys, m := newTestEngine(t, 2)
	writeLines(t, fsys, "/in", "x")
	e.Fault = FaultFunc(func(ti TaskInfo) bool { return ti.Kind == ReduceTask })
	job := &Job{
		Name:      "doomed",
		InputPath: "/in",
		Mapper:    wcMapper{},
		Reducer:   wcReducer{},
	}
	if _, err := e.Run(job); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v, want ErrTooManyFailures", err)
	}
	if got := m.Snapshot().TaskRestarts; got != maxAttempts {
		t.Fatalf("TaskRestarts = %d, want %d", got, maxAttempts)
	}
}

// TestExhaustedTaskKeepsItsCause: a map or reduce task that fails on
// every attempt returns an error that is both ErrTooManyFailures and
// the last attempt's cause under errors.Is, after the full retry policy
// and its charges.
func TestExhaustedTaskKeepsItsCause(t *testing.T) {
	cause := errors.New("bad record")
	for _, kind := range []TaskKind{MapTask, ReduceTask} {
		e, fsys, m := newTestEngine(t, 2)
		writeLines(t, fsys, "/in", "x")
		job := &Job{Name: "cause", InputPath: "/in", Mapper: wcMapper{}, Reducer: wcReducer{}}
		if kind == MapTask {
			job.Mapper = MapperFunc(func(int64, string, Emitter) error { return fmt.Errorf("parse: %w", cause) })
		} else {
			job.Reducer = ReducerFunc(func(string, []any, Emitter) error { return fmt.Errorf("statistic: %w", cause) })
		}
		_, err := e.Run(job)
		if !errors.Is(err, ErrTooManyFailures) || !errors.Is(err, cause) {
			t.Fatalf("%s: err = %v, want both ErrTooManyFailures and the cause", kind, err)
		}
		s := m.Snapshot()
		launches := s.MapTasks
		if kind == ReduceTask {
			launches = s.ReduceTasks
		}
		if s.TaskRestarts != maxAttempts || launches != maxAttempts {
			t.Fatalf("%s: %d restarts over %d launches, want %d each", kind, s.TaskRestarts, launches, maxAttempts)
		}
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	// Key order within partitions must be deterministic across runs.
	var prev []KV
	for i := 0; i < 5; i++ {
		e, fsys, _ := newTestEngine(t, 4)
		writeLines(t, fsys, "/in", "q w e r t y u i o p", "a s d f g h j k l")
		job := &Job{
			Name:        "det",
			InputPath:   "/in",
			SplitSize:   20, // one line per split
			Mapper:      wcMapper{},
			Reducer:     wcReducer{},
			NumReducers: 3,
		}
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if len(prev) != len(res.Output) {
				t.Fatal("output length varies across runs")
			}
			for j := range prev {
				if prev[j] != res.Output[j] {
					t.Fatalf("run %d output[%d] = %v, was %v", i, j, res.Output[j], prev[j])
				}
			}
		}
		prev = res.Output
	}
}

func TestMetricsCharged(t *testing.T) {
	e, fsys, m := newTestEngine(t, 3)
	writeLines(t, fsys, "/in", "a b", "c")
	job := &Job{
		Name:      "metrics",
		InputPath: "/in",
		SplitSize: 4, // one line per split
		Mapper:    wcMapper{},
		Reducer:   wcReducer{},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.JobStartups != 1 {
		t.Fatalf("JobStartups = %d", s.JobStartups)
	}
	if s.MapTasks != 2 || s.ReduceTasks != 1 {
		t.Fatalf("tasks = %d/%d, want 2/1", s.MapTasks, s.ReduceTasks)
	}
	if s.RecordsRead != 2 {
		t.Fatalf("RecordsRead = %d, want 2", s.RecordsRead)
	}
	if s.RecordsMapped != 3 {
		t.Fatalf("RecordsMapped = %d, want 3", s.RecordsMapped)
	}
	if s.RecordsReduced != 3 {
		t.Fatalf("RecordsReduced = %d, want 3", s.RecordsReduced)
	}
	if s.BytesShuffled == 0 {
		t.Fatal("BytesShuffled = 0")
	}
}

func TestEmptyInput(t *testing.T) {
	e, fsys, _ := newTestEngine(t, 2)
	writeLines(t, fsys, "/in")
	job := &Job{
		Name:      "empty",
		InputPath: "/in",
		Mapper:    wcMapper{},
		Reducer:   wcReducer{},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Fatalf("output = %v, want empty", res.Output)
	}
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

func TestGroupByKeyPreservesValueOrder(t *testing.T) {
	kvs := []KV{{"b", 1}, {"a", 2}, {"b", 3}, {"a", 4}}
	groups := groupByKey(kvs)
	if len(groups) != 2 || groups[0].key != "a" || groups[1].key != "b" {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].values[0] != 2 || groups[0].values[1] != 4 {
		t.Fatalf("value order not preserved: %+v", groups[0])
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

func TestRunWithAllNodesDead(t *testing.T) {
	e, fsys, _ := newTestEngine(t, 2)
	writeLines(t, fsys, "/in", "x")
	e.Cluster.KillNode(0)
	e.Cluster.KillNode(1)
	job := &Job{Name: "dead", InputPath: "/in", Mapper: wcMapper{}, Reducer: wcReducer{}}
	if _, err := e.Run(job); err == nil {
		t.Fatal("job on dead cluster should fail")
	}
}

func TestEngineDefaults(t *testing.T) {
	fsys := dfs.New(dfs.Config{BlockSize: 64, Replication: 1, DataNodes: 1, Seed: 1})
	writeLines(t, fsys, "/in", "a")
	job := &Job{Name: "defaults", InputPath: "/in", Mapper: wcMapper{}, Reducer: wcReducer{}}
	// Nothing defaults an engine's cluster: without one, a job fails.
	if _, err := (&Engine{FS: fsys}).Run(job); err == nil {
		t.Fatal("engine without a Cluster ran a job")
	}
	cl, err := NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	var ledger simcost.Metrics
	e := &Engine{FS: fsys, Cluster: cl, Metrics: &ledger}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 {
		t.Fatalf("output = %v", res.Output)
	}
	if s := ledger.Snapshot(); s.JobStartups != 1 || s.RecordsRead != 1 {
		t.Fatalf("ledger = %+v, want the one job and its one record", s)
	}
	// A nil ledger charges nothing and runs the same job.
	if _, err := (&Engine{FS: fsys, Cluster: cl}).Run(job); err != nil {
		t.Fatal(err)
	}
}
