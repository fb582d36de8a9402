package simcost

import (
	"sync"
	"testing"
	"time"
)

func TestSnapshotAddSub(t *testing.T) {
	// The same arithmetic on a root ledger, a child and a grandchild: a
	// ledger's charges read back from it, and land in the root as well.
	var root Metrics
	for _, m := range []*Metrics{&root, root.Child(), root.Child().Child()} {
		start := root.Snapshot()
		m.Charge(Snapshot{BytesRead: 100, MapTasks: 2})
		a := m.Snapshot()
		m.Charge(Snapshot{BytesRead: 50})
		b := m.Snapshot()
		d := b.Sub(a)
		if d.BytesRead != 50 || d.MapTasks != 0 {
			t.Fatalf("delta = %+v", d)
		}
		sum := a.Add(d)
		if sum != b {
			t.Fatalf("add(sub) not identity: %+v vs %+v", sum, b)
		}
		if got := root.Snapshot().Sub(start); got != (Snapshot{BytesRead: 150, MapTasks: 2}) {
			t.Fatalf("the root saw %+v of its descendant's charges", got)
		}
	}
	// A nil ledger charges nothing, and does not panic doing it.
	var none *Metrics
	none.Charge(Snapshot{BytesRead: 1, JobStartups: 1})
}

func TestMetricsConcurrent(t *testing.T) {
	// 16 goroutines charge one shared ledger, then 16 children of it:
	// either way the root loses no update, and each child holds its own.
	for _, children := range []bool{false, true} {
		var m Metrics
		ledgers := make([]*Metrics, 16)
		for i := range ledgers {
			ledgers[i] = &m
			if children {
				ledgers[i] = m.Child()
			}
		}
		var wg sync.WaitGroup
		for _, l := range ledgers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 1000; j++ {
					l.Charge(Snapshot{RecordsRead: 1, BytesRead: 2})
				}
			}()
		}
		wg.Wait()
		if got := m.Snapshot(); got.RecordsRead != 16000 || got.BytesRead != 32000 {
			t.Fatalf("children=%v: concurrent charges lost updates: %+v", children, got)
		}
		if children {
			for i, l := range ledgers {
				if got := l.Snapshot(); got != (Snapshot{RecordsRead: 1000, BytesRead: 2000}) {
					t.Fatalf("child %d holds %+v, want its own 1000 charges", i, got)
				}
			}
		}
	}
}

func TestReset(t *testing.T) {
	var m Metrics
	m.BytesRead.Add(5)
	m.JobStartups.Add(1)
	m.Refreshes.Add(2)
	m.Reset()
	if s := m.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("reset left %+v", s)
	}
}

func TestRefreshesCounter(t *testing.T) {
	var m Metrics
	m.Refreshes.Add(3)
	a := m.Snapshot()
	if a.Refreshes != 3 {
		t.Fatalf("snapshot refreshes = %d", a.Refreshes)
	}
	m.Refreshes.Add(2)
	d := m.Snapshot().Sub(a)
	if d.Refreshes != 2 {
		t.Fatalf("delta refreshes = %d", d.Refreshes)
	}
	if got := a.Add(d).Refreshes; got != 5 {
		t.Fatalf("add refreshes = %d", got)
	}
	// Refreshes are operation counts, like job submissions: extrapolating
	// data volume must not scale them.
	if got := d.ScaleBytes(10).Refreshes; got != 2 {
		t.Fatalf("ScaleBytes scaled refreshes: %d", got)
	}
}

func TestHadoop2012Valid(t *testing.T) {
	if err := Hadoop2012().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []CostModel{
		{ClusterNodes: 0, DiskMBps: 1, NetMBps: 1},
		{ClusterNodes: 1, DiskMBps: 0, NetMBps: 1},
		{ClusterNodes: 1, DiskMBps: 1, NetMBps: 1, PipelineDiscount: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestDurationComponents(t *testing.T) {
	c := CostModel{
		ClusterNodes: 1,
		DiskMBps:     100,
		NetMBps:      100,
		SeekLatency:  time.Millisecond,
		RecordCPU:    time.Microsecond,
		TaskStartup:  time.Second,
		JobStartup:   5 * time.Second,
	}
	// 100 MB read at 100 MB/s = 1 s; 1 job = 5 s; 2 tasks = 2 s.
	s := Snapshot{BytesRead: 100 << 20, JobStartups: 1, MapTasks: 2}
	got := c.Duration(s)
	want := 8 * time.Second
	if diff := got - want; diff < -50*time.Millisecond || diff > 50*time.Millisecond {
		t.Fatalf("Duration = %v, want ≈%v", got, want)
	}
}

func TestParallelismDividesDataTerms(t *testing.T) {
	c1 := Hadoop2012()
	c1.ClusterNodes = 1
	c5 := Hadoop2012() // 5 nodes
	s := Snapshot{BytesRead: 1 << 30, RecordsRead: 10_000_000}
	d1 := c1.Duration(s)
	d5 := c5.Duration(s)
	ratio := float64(d1) / float64(d5)
	if ratio < 4.5 || ratio > 5.5 {
		t.Fatalf("5-node speedup on data terms = %v, want ≈5", ratio)
	}
	// Job startup must NOT parallelise.
	sj := Snapshot{JobStartups: 3}
	if c1.Duration(sj) != c5.Duration(sj) {
		t.Fatal("job startup should be serial")
	}
}

func TestPipelinedDurationHidesShuffle(t *testing.T) {
	c := Hadoop2012()
	s := Snapshot{BytesShuffled: 1 << 30}
	batch := c.Duration(s)
	pipe := c.PipelinedDuration(s)
	if pipe >= batch {
		t.Fatalf("pipelined %v should be < batch %v", pipe, batch)
	}
	wantRatio := 1 - c.PipelineDiscount
	gotRatio := float64(pipe) / float64(batch)
	if gotRatio < wantRatio-0.01 || gotRatio > wantRatio+0.01 {
		t.Fatalf("pipeline ratio = %v, want %v", gotRatio, wantRatio)
	}
}

func TestScaleBytes(t *testing.T) {
	s := Snapshot{BytesRead: 100, RecordsRead: 10, MapTasks: 3, JobStartups: 1}
	sc := s.ScaleBytes(10)
	if sc.BytesRead != 1000 || sc.RecordsRead != 100 {
		t.Fatalf("scaled = %+v", sc)
	}
	if sc.MapTasks != 3 || sc.JobStartups != 1 {
		t.Fatal("fixed overheads must not scale")
	}
}

func TestStringNonEmpty(t *testing.T) {
	if (Snapshot{}).String() == "" {
		t.Fatal("String should render something")
	}
}
