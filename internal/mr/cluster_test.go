package mr

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/simcost"
)

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

// TestRunWithAllNodesDead: a job on a cluster with no live node fails
// to place its tasks.
func TestRunWithAllNodesDead(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	c.KillNode(0)
	c.KillNode(1)
	if _, err := c.Place("dead", 1, 1, nil); err == nil {
		t.Fatal("job on dead cluster should fail")
	}
}

// TestMetricsCharged: placing a job charges its startup and every task
// it places, and map tasks go round-robin over the live nodes after the
// reducers.
func TestMetricsCharged(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	c.KillNode(1)
	var m simcost.Metrics
	nodes, err := c.Place("metrics", 3, 2, &m)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 0}; !slices.Equal(nodes, want) {
		t.Fatalf("map tasks on nodes %v, want %v", nodes, want)
	}
	want := simcost.Snapshot{JobStartups: 1, MapTasks: 3, ReduceTasks: 2}
	if s := m.Snapshot(); s != want {
		t.Fatalf("charged %+v, want %+v", s, want)
	}
}
