package mr

import (
	"fmt"
	"sync"

	"repro/internal/simcost"
)

// Cluster models the compute side of the testbed: a set of nodes that
// live and die. A task is placed on the next live node round-robin —
// placement is bookkeeping, not admission: nothing waits for capacity,
// so concurrent jobs with more tasks than nodes all start. The paper's
// cluster had 5 nodes.
type Cluster struct {
	mu    sync.Mutex
	alive []bool
	next  int // round-robin placement cursor
}

// NewCluster creates a cluster of n live nodes.
func NewCluster(n int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mr: cluster needs at least one node, got %d", n)
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return &Cluster{alive: alive}, nil
}

// KillNode marks a node dead. Tasks already placed there observe the
// death at their next liveness check and fail; new tasks avoid it.
func (c *Cluster) KillNode(id int) error {
	return c.setAlive(id, false)
}

// ReviveNode brings a node back into scheduling.
func (c *Cluster) ReviveNode(id int) error {
	return c.setAlive(id, true)
}

func (c *Cluster) setAlive(id int, alive bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.alive) {
		return fmt.Errorf("mr: no node %d", id)
	}
	c.alive[id] = alive
	return nil
}

// NodeAlive reports whether node id is alive (false for unknown ids).
func (c *Cluster) NodeAlive(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return id >= 0 && id < len(c.alive) && c.alive[id]
}

// Place starts job on the cluster and charges m for it: the job's
// startup, then nr reduce tasks — placed first, since they hold the
// job's state — and nm map tasks in index order. It returns the map
// tasks' nodes; with no live node to place on, the job fails.
func (c *Cluster) Place(job string, nm, nr int, m *simcost.Metrics) (mappers []int, err error) {
	m.Charge(simcost.Snapshot{JobStartups: 1})
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range nr {
		if _, err := c.placeLocked(); err != nil {
			return nil, fmt.Errorf("mr: placing reduce[%d] of %q: %w", p, job, err)
		}
	}
	m.Charge(simcost.Snapshot{ReduceTasks: int64(nr)})
	mappers = make([]int, nm)
	for i := range mappers {
		if mappers[i], err = c.placeLocked(); err != nil {
			return nil, fmt.Errorf("mr: placing map[%d] of %q: %w", i, job, err)
		}
	}
	m.Charge(simcost.Snapshot{MapTasks: int64(nm)})
	return mappers, nil
}

// placeLocked returns the next live node round-robin, or an error when
// no node is alive.
func (c *Cluster) placeLocked() (int, error) {
	for i := range c.alive {
		id := (c.next + i) % len(c.alive)
		if c.alive[id] {
			c.next = (id + 1) % len(c.alive)
			return id, nil
		}
	}
	return 0, fmt.Errorf("mr: no live nodes")
}
