package mr

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/simcost"
)

// Engine runs pipelined jobs on a cluster, charging every task and
// record to Metrics (nothing, when nil). It is a plain value: a run
// that keeps its own ledger copies the engine and sets Metrics.
type Engine struct {
	Cluster *Cluster
	Metrics *simcost.Metrics
	Fault   FaultInjector
}

// errNoCluster is what an engine without a Cluster answers every job.
var errNoCluster = errors.New("mr: engine has no Cluster")

// Controller is the mapper⇄reducer communication layer of §2.1 and a
// sampled run's single round barrier (§3.3). The paper runs this
// feedback through per-reducer error files the mappers poll; here it is
// events under one mutex, and only the files' cost is kept (charged to
// simcost per completed round):
//   - mappers report emissions (Sent) and exhaustion or failure (Dry) and
//     park in MapStream.AwaitQuota between rounds;
//   - reducers report arrivals (Received); once every mapper has settled
//     and the shuffle has drained, each partition with a round to fold
//     gets a token on Ready, folds, and Publishes its error;
//   - the Publish that completes a round decides exactly once, through
//     Feedback.decide, from the cvs published for that round;
//   - when no further progress is possible the run ends itself (§3.4).
//
// The zero value serves stream jobs without rounds: Terminate is all
// they use. Methods are safe for concurrent use.
type Controller struct {
	mu         sync.Mutex
	terminated bool
	target     int64         // requested total sample size
	changed    chan struct{} // closed (and dropped) on a target rise or termination

	fb                Feedback
	sent              []int64 // per mapper: records emitted
	dry               []bool  // per mapper: delivers nothing more
	emitted, received int64
	parts             []partition
	rounds, decided   int // most rounds any partition published; rounds ruled on
}

// partition is one reduce partition's side of the barrier.
type partition struct {
	cvs     []float64     // published error, one per round
	pending int64         // records received since the last Publish
	folded  int64         // target of the last round handed out; -1 before the first
	folding bool          // a round is handed out and not yet published
	ready   chan struct{} // one token per handed-out round
}

// Feedback shapes one sampled run's barrier: who takes part and the
// §3.3 stop/expand policy.
type Feedback struct {
	Mappers, Partitions int
	Sigma               float64 // stop once a round's mean error is within it
	InitialN, MaxN      int64   // schedule: InitialN·2^round, capped at MaxN
	Metrics             *simcost.Metrics
}

// The modelled exchange of one round, poll-free: each partition writes
// one small replicated error file, each mapper seeks to and reads each.
const (
	errorFileBytes    = 24
	errorFileReplicas = 3
)

// NewController returns one sampled run's barrier, its target at
// f.InitialN.
func NewController(f Feedback) *Controller {
	c := &Controller{
		fb:     f,
		target: f.InitialN,
		sent:   make([]int64, f.Mappers),
		dry:    make([]bool, f.Mappers),
		parts:  make([]partition, f.Partitions),
	}
	for p := range c.parts {
		c.parts[p].folded = -1
		c.parts[p].ready = make(chan struct{}, 1)
	}
	return c
}

// decide is the §3.3 policy, a pure function of one completed round:
// stop when the mean error is within Sigma, else expand to
// InitialN·2^round (keyed on the round, never on timing) capped at
// MaxN, and stop at the cap. NaN is a partition no key routes to and is
// skipped; +Inf (data, not yet trustworthy) keeps expanding, as does a
// round without any opinion.
func (f Feedback) decide(round int, cvs []float64, target int64) (next int64, stop bool) {
	sum, n := 0.0, 0
	for _, cv := range cvs {
		if !math.IsNaN(cv) {
			sum += cv
			n++
		}
	}
	if n > 0 && sum/float64(n) <= f.Sigma {
		return target, true
	}
	next = min(f.InitialN<<uint(min(round, 40)), f.MaxN) // MaxN clamps long before 2^40
	if next > target {
		return next, false
	}
	return target, target >= f.MaxN
}

// share is mapper i's part of a total target.
func (c *Controller) share(target int64, i int) int64 {
	m := int64(len(c.sent))
	if int64(i) < target%m {
		return target/m + 1
	}
	return target / m
}

// Terminate tells all long-lived mappers to stop: the required accuracy
// has been reached, or no more can be.
func (c *Controller) Terminate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.terminateLocked()
}

func (c *Controller) terminateLocked() {
	c.terminated = true
	c.wakeLocked()
}

// wakeLocked releases every parked mapper to re-read the state.
func (c *Controller) wakeLocked() {
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// Terminated reports whether termination has been requested.
func (c *Controller) Terminated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.terminated
}

// ExpansionTarget returns the total sample size the mappers are
// currently asked to produce.
func (c *Controller) ExpansionTarget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.target
}

// Rounds returns the growth rounds folded: the most any partition has
// published.
func (c *Controller) Rounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds
}

// quota returns how many more records mapper i owes the current target
// and, with nothing owed, the channel that closes on the next target
// rise or termination; done means the run is over.
func (c *Controller) quota(i int) (owed int64, done bool, changed <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.terminated {
		return 0, true, nil
	}
	if owed = c.share(c.target, i) - c.sent[i]; owed > 0 && !c.dry[i] {
		return owed, false, nil
	}
	if c.changed == nil {
		c.changed = make(chan struct{})
	}
	return 0, false, c.changed
}

// Sent records that mapper i emitted n more records. Call it after the
// emits return: a mapper with a send in flight is not yet settled.
func (c *Controller) Sent(i, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent[i] += int64(n)
	c.emitted += int64(n)
	c.settleLocked()
}

// Dry records that mapper i will deliver nothing more: its source ran
// out, or it failed (RunPipelined reports that itself). Without
// Feedback it is ignored.
func (c *Controller) Dry(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < len(c.dry) {
		c.dry[i] = true
		c.settleLocked()
	}
}

// Received records that partition p buffered n more records.
func (c *Controller) Received(p, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parts[p].pending += int64(n)
	c.received += int64(n)
	c.settleLocked()
}

// Ready delivers one token per round partition p is to fold — all the
// round will ever hold has arrived. The reducer folds and Publishes.
func (c *Controller) Ready(p int) <-chan struct{} { return c.parts[p].ready }

// Publish records partition p's error after a fold. The call that
// completes a round — every partition has now published it — takes that
// round's decision, from the cvs published for that round: a partition
// running ahead (its post-drain flush, a round a peer had nothing to
// fold for) never leaks into an earlier one.
func (c *Controller) Publish(p int, cv float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	part := &c.parts[p]
	part.cvs = append(part.cvs, cv)
	part.pending, part.folding = 0, false
	c.rounds = max(c.rounds, len(part.cvs))
rounds:
	for !c.terminated {
		round := c.decided + 1
		cvs := make([]float64, len(c.parts))
		for q := range c.parts {
			if len(c.parts[q].cvs) < round {
				break rounds
			}
			cvs[q] = c.parts[q].cvs[round-1]
		}
		c.decided = round
		files, readers := int64(len(c.parts)), int64(len(c.sent))
		c.fb.Metrics.Charge(simcost.Snapshot{BytesWritten: files * errorFileBytes * errorFileReplicas,
			DiskSeeks: readers * files, BytesRead: readers * files * errorFileBytes})
		next, stop := c.fb.decide(round, cvs, c.target)
		if stop {
			c.terminateLocked()
		} else if next > c.target {
			c.target = next
			c.wakeLocked()
		}
	}
	c.settleLocked()
}

// settleLocked runs after every event. Once nothing more can arrive for
// the target — every mapper met its share or went dry, everything
// emitted was received — it hands out the round: to every partition if
// the target was met (deltas or not, so the round can complete), else
// (a dry or dead mapper's share is missing) to those holding deltas; an
// empty round is not minted. With nothing to hand out and nothing being
// folded, no progress is possible and the run ends (§3.4).
func (c *Controller) settleLocked() {
	if c.terminated || c.received != c.emitted {
		return
	}
	for i := range c.sent {
		if !c.dry[i] && c.sent[i] < c.share(c.target, i) {
			return
		}
	}
	stuck := true
	for p := range c.parts {
		part := &c.parts[p]
		if !part.folding && part.folded != c.target && (c.received >= c.target || part.pending > 0) {
			part.folded, part.folding = c.target, true
			part.ready <- struct{}{} // cannot block: folding admits one token at a time
		}
		stuck = stuck && !part.folding
	}
	if stuck {
		c.terminateLocked()
	}
}

// StreamJob describes a pipelined job: NumMappers long-lived map tasks
// push pairs directly to NumReducers reduce tasks while both run — the
// Hadoop-Online-style pipelining EARL adopts, with the addition that the
// transfer is *active*: the map side decides when to send more and when
// to stop, guided by the Controller.
type StreamJob struct {
	Name        string
	NumMappers  int
	NumReducers int

	// MapTask runs once per mapper index. It should emit pairs via ctx
	// and check ctx.Terminated() or ctx.AwaitQuota between batches,
	// returning nil when done.
	MapTask func(ctx *MapStream, index int) error

	// ReduceTask consumes one partition's stream until it is closed.
	ReduceTask func(part int, in <-chan KV) error

	// Control connects the two sides; a fresh Controller is used if nil.
	Control *Controller
}

// MapStream is the context handed to a pipelined map task.
type MapStream struct {
	eng   *Engine
	node  int
	chans []chan KV
	ctrl  *Controller
}

// Emit routes one pair to its reduce partition, blocking if the reducer
// is behind (backpressure stands in for the TCP transfer windows of the
// real pipelined Hadoop). A []float64 value is a batch of records
// sharing one key (the vectorized scan path) and is charged per record,
// so the counters read the same whichever path emitted.
func (m *MapStream) Emit(key string, value any) {
	p := HashPartition(key, len(m.chans))
	records := int64(1)
	if batch, ok := value.([]float64); ok {
		records = int64(len(batch))
	}
	m.eng.Metrics.Charge(simcost.Snapshot{RecordsMapped: records, BytesShuffled: int64(len(key)) + ValueSize(value)})
	m.chans[p] <- KV{Key: key, Value: value}
}

// Terminated reports whether the controller has requested termination or
// this task's node has died.
func (m *MapStream) Terminated() bool { return m.ctrl.Terminated() || !m.NodeAlive() }

// NodeAlive reports whether this task's node is still up; EARL's fault
// tolerance path uses it to distinguish "done" from "dead".
func (m *MapStream) NodeAlive() bool { return m.eng.Cluster.NodeAlive(m.node) }

// AwaitQuota returns how many more records map task index owes the
// controller's target, parking while it owes none. ok is false once the
// run has terminated or this task's node has died (KillNode wakes it).
func (m *MapStream) AwaitQuota(index int) (owed int64, ok bool) {
	for {
		// Taken before the state is read: a kill landing after this line
		// closes the channel the select waits on.
		alive, killed := m.eng.Cluster.watchNode(m.node)
		if !alive {
			return 0, false
		}
		owed, done, changed := m.ctrl.quota(index)
		if done {
			return 0, false
		}
		if owed > 0 {
			return owed, true
		}
		select {
		case <-changed:
		case <-killed:
		}
	}
}

// StreamResult reports how a pipelined job ended.
type StreamResult struct {
	// FailedMappers lists map task indices that returned an error or died
	// with their node. In EARL these are NOT restarted — the job finishes
	// on surviving data and reports achieved accuracy (§3.4).
	FailedMappers []int
	// MapperErrs holds the corresponding errors, parallel to FailedMappers.
	MapperErrs []error
}

// RunPipelined executes a StreamJob. Unlike stock Hadoop, map failures
// are not retried and do not fail the job: the failed task's remaining
// input is simply absent, which is the failure model EARL's
// approximation tolerates. Reduce failures fail the job, as reducers
// hold the states.
func (e *Engine) RunPipelined(job *StreamJob) (*StreamResult, error) {
	if e.Cluster == nil {
		return nil, errNoCluster
	}
	if job.MapTask == nil || job.ReduceTask == nil {
		return nil, fmt.Errorf("mr: stream job needs MapTask and ReduceTask")
	}
	nm := job.NumMappers
	if nm <= 0 {
		nm = 1
	}
	nr := job.NumReducers
	if nr <= 0 {
		nr = 1
	}
	ctrl := job.Control
	if ctrl == nil {
		ctrl = &Controller{}
	}
	e.Metrics.Charge(simcost.Snapshot{JobStartups: 1})

	chans := make([]chan KV, nr)
	for i := range chans {
		chans[i] = make(chan KV, 1024)
	}

	// Reducers are placed first — they must be consuming before mappers
	// push, so they are placed synchronously here.
	var rwg sync.WaitGroup
	rerrs := make([]error, nr)
	nodes := make([]int, nr)
	for p := range nodes {
		nid, err := e.Cluster.place()
		if err != nil {
			return nil, fmt.Errorf("mr: placing reduce[%d] of %q: %w", p, job.Name, err)
		}
		nodes[p] = nid
	}
	for p := 0; p < nr; p++ {
		rwg.Add(1)
		go func(p int) {
			defer rwg.Done()
			nid := nodes[p]
			e.Metrics.Charge(simcost.Snapshot{ReduceTasks: 1})
			info := TaskInfo{Job: job.Name, Kind: ReduceTask, Index: p, Attempt: 0, Node: nid}
			if e.Fault != nil && e.Fault.ShouldFail(info) {
				rerrs[p] = fmt.Errorf("mr: injected failure at %s", info)
				ctrl.Terminate()
				for range chans[p] {
				}
				return
			}
			counted := make(chan KV, 64)
			done := make(chan struct{})
			go func() {
				defer close(done)
				rerrs[p] = job.ReduceTask(p, counted)
				if rerrs[p] != nil {
					// Reducers hold the states: the job is lost, so stop
					// the mappers feeding it.
					ctrl.Terminate()
				}
				// A task that returned early must not block the shuffle.
				for range counted {
				}
			}()
			for kv := range chans[p] {
				e.Metrics.Charge(simcost.Snapshot{RecordsReduced: 1})
				counted <- kv
			}
			close(counted)
			<-done
		}(p)
	}

	// Mappers: one goroutine each, never a bounded pool — they meet at
	// the round barrier, so a mapper waiting for a worker would stall
	// the siblings already parked there.
	var mwg sync.WaitGroup
	merrs := make([]error, nm)
	for i := 0; i < nm; i++ {
		mwg.Add(1)
		go func(i int) {
			defer mwg.Done()
			defer func() {
				if merrs[i] != nil {
					// A failed map task delivers nothing more: the barrier
					// stops waiting for its share (§3.4).
					ctrl.Dry(i)
				}
			}()
			nid, err := e.Cluster.place()
			if err != nil {
				merrs[i] = err
				return
			}
			e.Metrics.Charge(simcost.Snapshot{MapTasks: 1})
			info := TaskInfo{Job: job.Name, Kind: MapTask, Index: i, Attempt: 0, Node: nid}
			if e.Fault != nil && e.Fault.ShouldFail(info) {
				merrs[i] = fmt.Errorf("mr: injected failure at %s", info)
				return
			}
			ctx := &MapStream{eng: e, node: nid, chans: chans, ctrl: ctrl}
			merrs[i] = job.MapTask(ctx, i)
		}(i)
	}
	mwg.Wait()
	for _, ch := range chans {
		close(ch)
	}
	rwg.Wait()

	res := &StreamResult{}
	for i, err := range merrs {
		if err != nil {
			res.FailedMappers = append(res.FailedMappers, i)
			res.MapperErrs = append(res.MapperErrs, err)
		}
	}
	for p, err := range rerrs {
		if err != nil {
			return res, fmt.Errorf("mr: reduce[%d] of %q: %w", p, job.Name, err)
		}
	}
	return res, nil
}
