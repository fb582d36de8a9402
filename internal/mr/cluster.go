package mr

import (
	"fmt"
	"sync"
)

// Cluster models the compute side of the testbed: a set of nodes, each
// with a bounded number of concurrently-running map slots and reduce
// slots (Hadoop's separate mapred.tasktracker.map/reduce.tasks.maximum
// pools — keeping the pools separate is also what lets pipelined jobs
// hold reducers open while mappers run without self-deadlock). The
// paper's cluster had 5 nodes; tasks scheduled onto a dead node fail and
// are rescheduled elsewhere.
type Cluster struct {
	mu    sync.Mutex
	nodes []*node
	next  int // round-robin scheduling cursor
	// killed is closed (and replaced) by the next KillNode, waking map
	// tasks parked between rounds to re-check their node.
	killed chan struct{}
}

type node struct {
	id          int
	alive       bool
	mapSlots    chan struct{} // buffered; one token per concurrent map task
	reduceSlots chan struct{} // buffered; one token per concurrent reduce task
}

func (n *node) pool(kind TaskKind) chan struct{} {
	if kind == MapTask {
		return n.mapSlots
	}
	return n.reduceSlots
}

// NewCluster creates a cluster of n nodes with slotsPerNode concurrent
// map slots and slotsPerNode reduce slots each.
func NewCluster(n, slotsPerNode int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mr: cluster needs at least one node, got %d", n)
	}
	if slotsPerNode <= 0 {
		return nil, fmt.Errorf("mr: need at least one slot per node, got %d", slotsPerNode)
	}
	c := &Cluster{killed: make(chan struct{})}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &node{
			id:          i,
			alive:       true,
			mapSlots:    make(chan struct{}, slotsPerNode),
			reduceSlots: make(chan struct{}, slotsPerNode),
		})
	}
	return c, nil
}

// Size returns the number of nodes, dead or alive.
func (c *Cluster) Size() int { return len(c.nodes) }

// LiveNodes returns the ids of nodes currently alive.
func (c *Cluster) LiveNodes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for _, n := range c.nodes {
		if n.alive {
			out = append(out, n.id)
		}
	}
	return out
}

// KillNode marks a node dead. Tasks already running there observe the
// death at their next liveness check (parked ones are woken for it) and
// fail; new tasks avoid it.
func (c *Cluster) KillNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("mr: no node %d", id)
	}
	c.nodes[id].alive = false
	close(c.killed)
	c.killed = make(chan struct{})
	return nil
}

// ReviveNode brings a node back into scheduling.
func (c *Cluster) ReviveNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("mr: no node %d", id)
	}
	c.nodes[id].alive = true
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
	return id >= 0 && id < len(c.nodes) && c.nodes[id].alive, c.killed
}

// acquireSlot picks a live node round-robin and claims one of its slots
// from the pool for the given task kind, blocking until a slot frees up.
// It returns the node id and a release function, or an error when no
// nodes are alive.
func (c *Cluster) acquireSlot(kind TaskKind) (int, func(), error) {
	c.mu.Lock()
	// Find the next live node round-robin.
	var chosen *node
	for i := 0; i < len(c.nodes); i++ {
		cand := c.nodes[(c.next+i)%len(c.nodes)]
		if cand.alive {
			// Prefer a node with a free slot right now.
			if len(cand.pool(kind)) < cap(cand.pool(kind)) {
				chosen = cand
				c.next = (cand.id + 1) % len(c.nodes)
				break
			}
			if chosen == nil {
				chosen = cand
			}
		}
	}
	if chosen == nil {
		c.mu.Unlock()
		return 0, nil, fmt.Errorf("mr: no live nodes")
	}
	c.mu.Unlock()
	// Block on the chosen node's slot. (If it dies while we wait, the
	// task will fail its liveness check immediately and be retried.)
	pool := chosen.pool(kind)
	pool <- struct{}{}
	return chosen.id, func() { <-pool }, nil
}
