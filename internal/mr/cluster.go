package mr

import (
	"fmt"
	"sync"
)

// Cluster models the compute side of the testbed: a set of nodes that
// live and die. A task is placed on the next live node round-robin —
// placement is bookkeeping, not admission: nothing waits for capacity,
// so pipelined mappers parked on the round barrier never hold up the
// siblings they wait for. The paper's cluster had 5 nodes; tasks placed
// on a dead node fail and are rescheduled elsewhere.
type Cluster struct {
	mu    sync.Mutex
	alive []bool
	next  int // round-robin placement cursor
	// killed is closed (and replaced) by the next KillNode, waking map
	// tasks parked between rounds to re-check their node.
	killed chan struct{}
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
	return &Cluster{alive: alive, killed: make(chan struct{})}, nil
}

// KillNode marks a node dead. Tasks already running there observe the
// death at their next liveness check (parked ones are woken for it) and
// fail; new tasks avoid it.
func (c *Cluster) KillNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.alive) {
		return fmt.Errorf("mr: no node %d", id)
	}
	c.alive[id] = false
	close(c.killed)
	c.killed = make(chan struct{})
	return nil
}

// ReviveNode brings a node back into scheduling.
func (c *Cluster) ReviveNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.alive) {
		return fmt.Errorf("mr: no node %d", id)
	}
	c.alive[id] = true
	return nil
}

// NodeAlive reports whether node id is alive (false for unknown ids).
func (c *Cluster) NodeAlive(id int) bool {
	alive, _ := c.watchNode(id)
	return alive
}

// watchNode reports whether node id is alive and returns a channel the
// next KillNode (of any node) closes.
func (c *Cluster) watchNode(id int) (alive bool, killed <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return id >= 0 && id < len(c.alive) && c.alive[id], c.killed
}

// place returns the next live node round-robin, or an error when no
// node is alive.
func (c *Cluster) place() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.alive {
		id := (c.next + i) % len(c.alive)
		if c.alive[id] {
			c.next = (id + 1) % len(c.alive)
			return id, nil
		}
	}
	return 0, fmt.Errorf("mr: no live nodes")
}
