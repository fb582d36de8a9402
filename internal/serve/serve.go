// Package serve is earld's engine room: a multi-tenant approximate-query
// scheduler over one simulated EARL cluster. It turns the single-caller
// core API into something many concurrent clients can hit at once, with
// three mechanisms layered over core.Env:
//
//   - Admission control. Every piece of real work (a Run, a grouped run,
//     a watch creation, a refresh) must claim one of Config.MaxInFlight
//     execution slots. Callers beyond that wait in a bounded queue
//     (Config.MaxQueue) honouring their context's deadline/cancellation;
//     callers beyond the queue are rejected immediately with
//     ErrOverloaded. MaxInFlight is the one bound on concurrent runs:
//     it keeps a burst of expensive queries from oversubscribing the
//     process and stretching every caller's latency — the
//     admission-control lesson the LSST-scale serving designs make
//     explicit.
//
//   - A shared-watch registry. Maintained queries — scalar,
//     multi-statistic shared-pass (QuerySpec.Stats), filtered/derived
//     (QuerySpec.Filter/Derive) and grouped (QuerySpec.GroupBy) alike —
//     are deduped by their full canonical plan identity
//     (statistics, path, filter, derive, group-by, σ, sampler, seed):
//     the first OpenWatch runs the query and keeps its maintained
//     handle; identical subsequent opens subscribe to the same
//     underlying query. After a write to the watched file, the first
//     subscriber to ask for the report pays the one delta refresh
//     (serialised per entry) and every subscriber reads the same
//     refreshed Report — K clients watching the same stream cost one
//     refresh per append, o(K·N) records, instead of K.
//
//   - A result cache for one-shot queries, keyed on what decides a
//     report's bits: the spec, and the dfs state (Version, size) of the
//     file in the commit the run read. A cached Report is returned only
//     while the live file is still in that state.
//
// Freshness is the file's dfs state alone, so any write — through
// Append and Rewrite, or straight to Env().FS — invalidates: neither a
// cache hit nor a watch report answers for bytes the file no longer
// holds.
//
// Every execution owns its cost: a one-shot runs on its own ledger and a
// watch keeps one for its creation and its refreshes (core.Env.Open), so
// QueryResult.Cost and the per-query aggregates in Metrics() are exact
// under any overlap.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/simcost"
)

// Errors the scheduler reports to clients.
var (
	// ErrOverloaded means both the execution slots and the waiting queue
	// are full; the client should back off and retry.
	ErrOverloaded = errors.New("serve: server overloaded (queue full)")
	// ErrUnknownWatch means the watch id is not (or no longer) registered.
	ErrUnknownWatch = errors.New("serve: unknown watch id")
)

// Config shapes the scheduler.
type Config struct {
	// MaxInFlight is the number of queries actually executing on the
	// cluster at once; 4 if 0.
	MaxInFlight int
	// MaxQueue is how many admitted callers may wait for a slot beyond
	// MaxInFlight before new arrivals are rejected; 64 if 0.
	MaxQueue int
	// QueryTimeout bounds one query's total time (queueing + execution)
	// when the caller's context carries no deadline of its own; 60s if 0.
	QueryTimeout time.Duration
	// MaxWatches bounds the shared-watch registry: every entry pins a
	// live.Watch's retained sample and sketch states, so abandoned
	// subscriptions must not grow server memory without limit; 256 if 0.
	MaxWatches int
	// WatchIdleTTL makes the registry cap recoverable: when OpenWatch
	// finds the registry full, watches nobody has opened or polled for
	// this long are evicted (their subscribers see ErrUnknownWatch and
	// re-open). 15m if 0.
	WatchIdleTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.MaxWatches <= 0 {
		c.MaxWatches = 256
	}
	if c.WatchIdleTTL <= 0 {
		c.WatchIdleTTL = 15 * time.Minute
	}
	return c
}

// QuerySpec names one approximate query — the identity the shared-watch
// registry and the result cache key on. It IS the engine-wide canonical
// plan.Spec (path, stats, filter, derive, by, σ, sampler, seed),
// shared verbatim with the earl library and earlctl's flags. Two specs
// that normalize the same way are the same query and may share work —
// {"stats":["p50"]} and {"stats":["q0.5"]} key identically.
type QuerySpec struct {
	plan.Spec
}

// normalize applies the engine-wide validation/canonicalization path
// (plan.Spec.Normalize) — the one shared with earlctl and the earl
// library, so malformed expressions fail here with positioned client
// errors, and WatchInfo and /metrics always show the canonical form.
func (q QuerySpec) normalize() (QuerySpec, error) {
	spec, err := q.Spec.Normalize()
	if err != nil {
		return q, fmt.Errorf("serve: %w", err)
	}
	return QuerySpec{Spec: spec}, nil
}

// key is the canonical identity string of a normalized spec — the
// engine-wide plan key.
func (q QuerySpec) key() string { return q.Spec.Key() }

// QueryResult is one answered query. Multi-statistic queries fill
// Reports (one per statistic, in request order) with Report carrying
// the first statistic for single-statistic compatibility. Cached marks
// the answer of an earlier run of the same spec over the file in the
// state it still is in.
type QueryResult struct {
	Report  core.Report         `json:"report"`
	Reports []core.Report       `json:"reports,omitempty"`
	Groups  *core.GroupedReport `json:"groups,omitempty"`
	Cached  bool                `json:"cached"`
	Elapsed time.Duration       `json:"elapsedNs"`
	// Cost is what this query's execution charged (zero for cache hits).
	Cost simcost.Snapshot `json:"cost"`
}

// WatchInfo describes one registered shared watch. Sub is the caller's
// private subscription token, set only in OpenWatch's response: the
// watch ID is shared by every subscriber of the same query, so closing
// takes (ID, Sub) — making one client's DELETE (and any network-layer
// retry of it) idempotent on its own subscription instead of able to
// decrement someone else's.
type WatchInfo struct {
	ID          string    `json:"id"`
	Sub         string    `json:"sub,omitempty"`
	Spec        QuerySpec `json:"spec"`
	Subscribers int       `json:"subscribers"`
	Refreshes   int       `json:"refreshes"`
	SampleSize  int       `json:"sampleSize"`
	// Report is the scalar result (first statistic for multi-statistic
	// watches); Reports carries every statistic of a multi-statistic
	// watch and Groups the per-key results of a grouped watch.
	Report  core.Report         `json:"report"`
	Reports []core.Report       `json:"reports,omitempty"`
	Groups  *core.GroupedReport `json:"groups,omitempty"`
}

// Stats are the server's own counters (the cluster's I/O counters live
// in the simcost snapshot next to them).
type Stats struct {
	Queries         int64 `json:"queries"`         // one-shot queries answered
	CacheHits       int64 `json:"cacheHits"`       // of which served from cache
	WatchesOpened   int64 `json:"watchesOpened"`   // OpenWatch calls
	WatchesShared   int64 `json:"watchesShared"`   // of which deduped onto an existing query
	RefreshesServed int64 `json:"refreshesServed"` // delta refreshes executed by the registry
	Appends         int64 `json:"appends"`         // appends through the server (other writes go uncounted)
	Rejected        int64 `json:"rejected"`        // admissions refused (queue full)
	Expired         int64 `json:"expired"`         // admissions abandoned (deadline/cancel)
	InFlight        int64 `json:"inFlight"`        // gauge: executing now
	Queued          int64 `json:"queued"`          // gauge: waiting for a slot
}

// MetricsReport is the GET /metrics payload.
type MetricsReport struct {
	Server  Stats            `json:"server"`
	Cluster simcost.Snapshot `json:"cluster"`
	// Scan is the decoded-block cache: hit/miss counters, unheld
	// bytes against the -cache-bytes budget, how many cold misses the
	// persistent columnar sidecars served (or failed to serve), the
	// blocks runs and watches hold, outside the budget, and the filter
	// selections memoized on cached blocks.
	Scan ScanCacheStats `json:"scanCache"`
	// Journal is the dfs commit-journal health snapshot: committed
	// records, journal bytes, active snapshot pins, and — when the
	// filesystem was built by crash recovery — what the replay found.
	Journal dfs.JournalStats `json:"journal"`
	// PerQuery aggregates the executions' costs by query identity.
	PerQuery map[string]QueryCost `json:"perQuery"`
	Watches  []WatchInfo          `json:"watches"`
}

// ScanCacheStats mirrors colscan.CacheStats with JSON names.
type ScanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"maxBytes"`
	Blocks        int   `json:"blocks"`
	SidecarReads  int64 `json:"sidecarReads"`
	SidecarErrors int64 `json:"sidecarErrors"`
	// Blocks a run or watch holds, resident or invalidated by a rewrite,
	// and sidecar misses built on an evicted or invalidated block's
	// storage (see colscan.CacheStats).
	Held      int   `json:"held"`
	HeldBytes int64 `json:"heldBytes"`
	Recycled  int64 `json:"recycled"`
	// Filter selections built and memoized on a cached block, and pool
	// fills a memo served; their bytes are inside bytes and heldBytes.
	Selections    int64 `json:"selections"`
	SelectionHits int64 `json:"selectionHits"`
}

// QueryCost is the accumulated cost of all executions of one query key.
type QueryCost struct {
	Count int64            `json:"count"`
	Cost  simcost.Snapshot `json:"cost"`
}

// Server schedules concurrent approximate queries over one cluster.
// All methods are safe for concurrent use.
type Server struct {
	env *core.Env
	cfg Config

	slots chan struct{} // execution-slot semaphore, cap MaxInFlight

	queries, cacheHits, watchesOpened, watchesShared atomic.Int64
	refreshesServed, appends, rejected, expired      atomic.Int64
	inFlight, queued                                 atomic.Int64

	mu       sync.Mutex
	watches  map[string]*watchEntry
	byID     map[string]*watchEntry
	cache    map[string]cacheEntry
	perQuery map[string]QueryCost
	watchSeq int64
	subSeq   int64
}

// watchEntry is one shared maintained query. Creation happens outside
// the server lock; subscribers arriving meanwhile wait on ready.
type watchEntry struct {
	id    string
	key   string
	spec  QuerySpec
	ready chan struct{}
	err   error       // creation outcome, valid after ready closes
	q     *live.Watch // valid after ready closes iff err == nil

	// refreshMu is a capacity-1 channel lock serialising refresh
	// decisions: unlike a sync.Mutex, a subscriber waiting behind a slow
	// refresh can still honour its context's deadline/cancellation.
	refreshMu chan struct{}
	synced    fileState           // file state read before the last refresh or the creation; guarded by refreshMu
	subIDs    map[string]struct{} // live subscription tokens, guarded by Server.mu
	lastTouch atomic.Int64        // unix nanos of the last open/poll; idle-eviction clock
}

// touch records activity on the watch for idle-eviction purposes.
func (e *watchEntry) touch() { e.lastTouch.Store(time.Now().UnixNano()) }

// cacheEntry is a one-shot result, valid while its file is in state.
type cacheEntry struct {
	state   fileState
	report  core.Report
	reports []core.Report // multi-statistic results
	grouped *core.GroupedReport
}

// fileState names a file's bytes: dfs gives a file a fresh, larger
// Version on every WriteFile, and within a version only an Append
// changes it, by growing it.
type fileState struct{ version, size int64 }

// stateOf reads path's state in v.
func stateOf(v dfs.View, path string) (fileState, error) {
	ver, err := v.Version(path)
	if err != nil {
		return fileState{}, err
	}
	size, err := v.Stat(path)
	return fileState{ver, size}, err
}

// after reports whether st is a later state of the file than o.
func (st fileState) after(o fileState) bool {
	return st.version > o.version || st.version == o.version && st.size > o.size
}

// liveState reads path's state from one commit of the live filesystem.
func (s *Server) liveState(path string) (fileState, error) {
	snap := s.env.FS.Snapshot()
	defer snap.Release()
	return stateOf(snap, path)
}

// Bounds on the per-key maps, so a long-lived server fed ever-varying
// specs (each seed/σ/path combination is a distinct key) cannot grow
// without limit. The cache evicts arbitrarily at the cap — it is a
// recency-free correctness cache, not an LRU — and per-query cost
// aggregates beyond the cap fold into one overflow bucket.
const (
	maxCacheEntries  = 1024
	maxPerQueryKeys  = 1024
	perQueryOverflow = "(other)"
)

// New builds a server over env.
func New(env *core.Env, cfg Config) (*Server, error) {
	if env == nil || env.FS == nil || env.Engine == nil {
		return nil, errors.New("serve: incomplete Env")
	}
	cfg = cfg.withDefaults()
	return &Server{
		env:      env,
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxInFlight),
		watches:  map[string]*watchEntry{},
		byID:     map[string]*watchEntry{},
		cache:    map[string]cacheEntry{},
		perQuery: map[string]QueryCost{},
	}, nil
}

// Env exposes the underlying environment. A write straight to its FS
// invalidates cached results and stales watches exactly as Append and
// Rewrite do: both key on the file's dfs state.
func (s *Server) Env() *core.Env { return s.env }

// withDeadline applies the configured default timeout when ctx carries
// no deadline of its own.
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.QueryTimeout)
}

// acquire claims one execution slot, queueing (up to MaxQueue waiters)
// until one frees or ctx ends. The returned release must be called once.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	grab := func() func() {
		s.inFlight.Add(1)
		return func() { s.inFlight.Add(-1); <-s.slots }
	}
	select {
	case s.slots <- struct{}{}:
		return grab(), nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return nil, ErrOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return grab(), nil
	case <-ctx.Done():
		s.expired.Add(1)
		return nil, ctx.Err()
	}
}

// chargeQuery folds one execution's cost into the per-query aggregates
// (bounded; see maxPerQueryKeys).
func (s *Server) chargeQuery(key string, cost simcost.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.perQuery[key]; !ok && len(s.perQuery) >= maxPerQueryKeys {
		key = perQueryOverflow
	}
	qc := s.perQuery[key]
	qc.Count++
	qc.Cost = qc.Cost.Add(cost)
	s.perQuery[key] = qc
}

// Query answers one one-shot query, from cache when the file is in the
// state a cached run read.
func (s *Server) Query(ctx context.Context, spec QuerySpec) (QueryResult, error) {
	spec, err := spec.normalize()
	if err != nil {
		return QueryResult{}, err
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	key := spec.key()

	if live, err := s.liveState(spec.Path); err == nil {
		s.mu.Lock()
		ce, ok := s.cache[key]
		s.mu.Unlock()
		if ok && ce.state == live {
			s.queries.Add(1)
			s.cacheHits.Add(1)
			return QueryResult{Report: ce.report, Reports: ce.reports, Groups: ce.grouped, Cached: true}, nil
		}
	}

	release, err := s.acquire(ctx)
	if err != nil {
		return QueryResult{}, err
	}
	defer release()

	// One execution path for every flavour: the plan driver. Single and
	// multi-statistic one-shots alike cost one shared sampling/IO pass,
	// and the run reads one commit, pinned here — after admission, so a
	// queued request holds none: a rewrite or an append landing mid-run
	// cannot give it a blend of two file states. It charges a ledger of
	// its own, which is its cost.
	run, unpin := s.env.Open(s.env.Metrics.Child())
	defer unpin()
	state, err := stateOf(run.View(), spec.Path)
	if err != nil {
		return QueryResult{}, err
	}
	start := time.Now()
	res := QueryResult{}
	pr, err := core.RunPlan(run, spec.Spec, core.Options{})
	if err != nil {
		return QueryResult{}, err
	}
	res.Report, res.Reports, res.Groups = wireShape(pr)
	res.Elapsed = time.Since(start)
	res.Cost = run.Metrics.Snapshot()
	s.queries.Add(1)
	s.chargeQuery(key, res.Cost)

	// Cache under the state of the file the run read: if a write landed
	// mid-run the live file has already left that state and the next
	// lookup misses. Never clobber a later state's entry — a slow
	// straggler finishing after an append (and after a rerun cached the
	// post-append result) would otherwise evict it and force the next
	// caller into a full run.
	s.mu.Lock()
	if ce, ok := s.cache[key]; !ok || !ce.state.after(state) {
		if !ok && len(s.cache) >= maxCacheEntries {
			for evict := range s.cache { // arbitrary eviction at the cap
				delete(s.cache, evict)
				break
			}
		}
		s.cache[key] = cacheEntry{state: state, report: res.Report, reports: res.Reports, grouped: res.Groups}
	}
	s.mu.Unlock()
	return res, nil
}

// OpenWatch subscribes to the maintained query named by spec, creating
// it on first open and deduping identical subsequent opens onto the same
// underlying live.Watch. The returned WatchInfo carries the watch id all
// subscribers share.
func (s *Server) OpenWatch(ctx context.Context, spec QuerySpec) (WatchInfo, bool, error) {
	spec, err := spec.normalize()
	if err != nil {
		return WatchInfo{}, false, err
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	key := spec.key()
	s.watchesOpened.Add(1)

	// Admission into the registry: join an existing identical watch, or
	// register a new entry while under the cap — evicting idle watches
	// (nobody opened or polled them within WatchIdleTTL) when full, so
	// abandoned subscriptions cannot wedge the registry permanently.
	for {
		s.mu.Lock()
		if e, ok := s.watches[key]; ok {
			sub := s.newSubLocked(e)
			s.mu.Unlock()
			e.touch()
			s.watchesShared.Add(1)
			select {
			case <-e.ready:
			case <-ctx.Done():
				s.unsubscribe(e, sub)
				return WatchInfo{}, false, ctx.Err()
			}
			if e.err != nil {
				s.unsubscribe(e, sub)
				return WatchInfo{}, false, e.err
			}
			info := s.infoOf(e)
			info.Sub = sub
			return info, true, nil
		}
		if len(s.watches) < s.cfg.MaxWatches {
			break // register below, still holding s.mu
		}
		idle := s.collectIdleLocked(time.Now().Add(-s.cfg.WatchIdleTTL).UnixNano())
		s.mu.Unlock()
		if len(idle) == 0 {
			return WatchInfo{}, false, fmt.Errorf("%w: watch registry at its %d-entry cap", ErrOverloaded, s.cfg.MaxWatches)
		}
		for _, old := range idle {
			<-old.ready
			if old.q != nil {
				old.q.Close()
			}
		}
	}
	s.watchSeq++
	e := &watchEntry{
		id:        fmt.Sprintf("w%d", s.watchSeq),
		key:       key,
		spec:      spec,
		ready:     make(chan struct{}),
		refreshMu: make(chan struct{}, 1),
		subIDs:    map[string]struct{}{},
	}
	e.touch()
	sub := s.newSubLocked(e)
	s.watches[key] = e
	s.byID[e.id] = e
	s.mu.Unlock()

	// The creation runs under a server-scoped deadline, not the
	// creator's: other clients dedupe onto this entry, so one impatient
	// creator timing out in the admission queue must not poison every
	// patient subscriber waiting on ready.
	cctx, ccancel := context.WithTimeout(context.Background(), s.cfg.QueryTimeout)
	defer ccancel()
	release, err := s.acquire(cctx)
	if err != nil {
		e.err = err
		close(e.ready)
		s.dropEntry(e)
		return WatchInfo{}, false, err
	}
	// The creation run pins the file as it stands after this read, so a
	// write racing the creation makes the first report pay one refresh —
	// which no-ops if the run already saw those bytes, and rebuilds if
	// the run's snapshot predated a rewrite. A failed read leaves the
	// zero state, which no file is in: the creation fails on the same
	// missing file, or the first report pays that one refresh.
	e.synced, _ = s.liveState(spec.Path)
	h, err := s.createWatch(spec)
	release()
	e.q, e.err = h, err
	close(e.ready)
	if err != nil {
		s.dropEntry(e)
		return WatchInfo{}, false, err
	}
	// The creation run is the dominant cost of a maintained query; charge
	// it to the key so /metrics compares watches and one-shots honestly.
	s.chargeQuery(key, h.Cost())
	info := s.infoOf(e)
	info.Sub = sub
	return info, false, nil
}

// createWatch runs the initial query for a registry entry — one
// plan-driven path for scalar, multi-statistic and grouped watches alike.
func (s *Server) createWatch(spec QuerySpec) (*live.Watch, error) {
	pq, err := core.PreparePlan(spec.Spec, core.Options{})
	if err != nil {
		return nil, err
	}
	return live.Open(s.env, pq)
}

// wireShape lays a result out the way QueryResult and WatchInfo carry
// it: groups alone for a grouped query, else the first statistic's
// report, with the full list beside it only when there are several.
func wireShape(res *core.PlanResult) (core.Report, []core.Report, *core.GroupedReport) {
	switch {
	case res.Groups != nil:
		return core.Report{}, nil, res.Groups
	case len(res.Reports) > 1:
		return res.Reports[0], res.Reports, nil
	}
	return res.Reports[0], nil, nil
}

// newSubLocked mints a subscription token on e. Caller holds Server.mu.
func (s *Server) newSubLocked(e *watchEntry) string {
	s.subSeq++
	sub := fmt.Sprintf("s%d", s.subSeq)
	e.subIDs[sub] = struct{}{}
	return sub
}

// infoOf renders an entry (whose ready channel has closed) for clients.
func (s *Server) infoOf(e *watchEntry) WatchInfo {
	s.mu.Lock()
	subs := len(e.subIDs)
	s.mu.Unlock()
	info := WatchInfo{
		ID:          e.id,
		Spec:        e.spec,
		Subscribers: subs,
		Refreshes:   e.q.Refreshes(),
		SampleSize:  e.q.SampleSize(),
	}
	info.Report, info.Reports, info.Groups = wireShape(e.q.Result())
	return info
}

// dropEntry removes a (failed or closed) entry from both indexes.
func (s *Server) dropEntry(e *watchEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.watches[e.key] == e {
		delete(s.watches, e.key)
	}
	delete(s.byID, e.id)
}

// collectIdleLocked deregisters watches whose last open/poll predates
// cutoff (unix nanos) and returns them for closing outside the lock.
// Caller holds Server.mu.
func (s *Server) collectIdleLocked(cutoff int64) []*watchEntry {
	var idle []*watchEntry
	//earl:nondet-ok collected entries are only Closed, each independently; order is immaterial
	for key, e := range s.watches {
		if e.lastTouch.Load() < cutoff {
			delete(s.watches, key)
			delete(s.byID, e.id)
			idle = append(idle, e)
		}
	}
	return idle
}

// unsubscribe removes the given subscription token, closing the
// underlying query when the last subscriber leaves. A token already
// removed (a duplicate DELETE, a network retry) is a no-op — it can
// never decrement someone else's subscription.
func (s *Server) unsubscribe(e *watchEntry, sub string) {
	s.mu.Lock()
	if _, ok := e.subIDs[sub]; !ok {
		s.mu.Unlock()
		return
	}
	delete(e.subIDs, sub)
	last := len(e.subIDs) == 0
	if last {
		if s.watches[e.key] == e {
			delete(s.watches, e.key)
		}
		delete(s.byID, e.id)
	}
	s.mu.Unlock()
	if last {
		<-e.ready
		if e.q != nil {
			e.q.Close()
		}
	}
}

// CloseWatch drops the subscription identified by (id, sub); the
// underlying maintained query is closed when the last subscriber
// leaves. Unknown ids return ErrUnknownWatch; an already-dropped sub on
// a live watch is an idempotent no-op.
func (s *Server) CloseWatch(id, sub string) error {
	if sub == "" {
		return errors.New("serve: close needs the subscription token from the open response")
	}
	s.mu.Lock()
	e, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownWatch, id)
	}
	s.unsubscribe(e, sub)
	return nil
}

// WatchReport returns the watch's current report, paying the one delta
// refresh if the file has been written since the last subscriber asked.
// Refreshes are serialised per watch: concurrent subscribers after one
// append perform exactly one underlying refresh, and all of them read
// the same (bit-identical) report.
func (s *Server) WatchReport(ctx context.Context, id string) (WatchInfo, error) {
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	s.mu.Lock()
	e, ok := s.byID[id]
	s.mu.Unlock()
	if !ok {
		return WatchInfo{}, fmt.Errorf("%w: %s", ErrUnknownWatch, id)
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return WatchInfo{}, ctx.Err()
	}
	if e.err != nil {
		return WatchInfo{}, e.err
	}
	e.touch()
	select {
	case e.refreshMu <- struct{}{}:
	case <-ctx.Done():
		return WatchInfo{}, ctx.Err()
	}
	defer func() { <-e.refreshMu }()
	state, err := s.liveState(e.spec.Path)
	if err != nil {
		return WatchInfo{}, err
	}
	if state != e.synced {
		release, err := s.acquire(ctx)
		if err != nil {
			return WatchInfo{}, err
		}
		// refreshMu makes this the only run charging the watch's ledger,
		// so the refresh's cost is the ledger's delta.
		beforeN, before := e.q.Refreshes(), e.q.Cost()
		_, err = e.q.Refresh()
		cost := e.q.Cost().Sub(before)
		release()
		if err != nil {
			return WatchInfo{}, err
		}
		e.synced = state
		// A Refresh that found nothing new (the creation run already read
		// these bytes — synced lags the file) is a no-op inside live and
		// must stay uncounted here too, or RefreshesServed and the
		// per-query costs drift from the true simcost.Refreshes.
		if e.q.Refreshes() > beforeN {
			s.refreshesServed.Add(1)
			s.chargeQuery(e.key, cost)
		}
	}
	return s.infoOf(e), nil
}

// Append adds record-aligned data to the end of path and returns the
// file's size after it. Like any write, it invalidates the path's
// cached results and marks every watch over it stale.
func (s *Server) Append(path string, data []byte) (int64, error) {
	if err := s.env.FS.Append(path, data); err != nil {
		return 0, err
	}
	s.appends.Add(1)
	return s.env.FS.Stat(path)
}

// Rewrite replaces path's contents wholesale and returns the new size.
// Watches over the path survive: the dfs WriteFile is one journaled
// commit, every refresh reads through a pinned snapshot, and a refresh
// that observes the new write generation rebuilds the maintained state
// from scratch — so the first report a subscriber asks for after a
// rewrite is bit-identical to a fresh watch opened over the rewritten
// contents, never a blend of old and new data. Like any write, it
// invalidates the path's cached results.
func (s *Server) Rewrite(path string, data []byte) (int64, error) {
	if err := s.env.FS.WriteFile(path, data); err != nil {
		return 0, err
	}
	if s.env.Scan != nil {
		// Version keying already protects correctness; dropping the old
		// contents' decoded blocks just frees the bytes promptly.
		s.env.Scan.InvalidatePath(path)
	}
	return s.env.FS.Stat(path)
}

// Stats returns the server's own counters.
func (s *Server) Stats() Stats {
	return Stats{
		Queries:         s.queries.Load(),
		CacheHits:       s.cacheHits.Load(),
		WatchesOpened:   s.watchesOpened.Load(),
		WatchesShared:   s.watchesShared.Load(),
		RefreshesServed: s.refreshesServed.Load(),
		Appends:         s.appends.Load(),
		Rejected:        s.rejected.Load(),
		Expired:         s.expired.Load(),
		InFlight:        s.inFlight.Load(),
		Queued:          s.queued.Load(),
	}
}

// Metrics returns the full metrics payload: server counters, the
// cluster-wide simcost aggregate, per-query cost totals, and every
// registered watch.
func (s *Server) Metrics() MetricsReport {
	rep := MetricsReport{
		Server:   s.Stats(),
		Cluster:  s.env.Metrics.Snapshot(),
		Journal:  s.env.FS.JournalStats(),
		PerQuery: map[string]QueryCost{},
	}
	if s.env.Scan != nil {
		cs := s.env.Scan.Stats()
		rep.Scan = ScanCacheStats{
			Hits: cs.Hits, Misses: cs.Misses,
			Bytes: cs.Bytes, MaxBytes: cs.MaxBytes, Blocks: cs.Blocks,
			SidecarReads: cs.SidecarReads, SidecarErrors: cs.SidecarErrors,
			Held: cs.Held, HeldBytes: cs.HeldBytes, Recycled: cs.Recycled,
			Selections: cs.Selections, SelectionHits: cs.SelectionHits,
		}
	}
	s.mu.Lock()
	for k, v := range s.perQuery {
		rep.PerQuery[k] = v
	}
	entries := make([]*watchEntry, 0, len(s.watches))
	for _, e := range s.watches {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	for _, e := range entries {
		select {
		case <-e.ready:
			if e.err == nil {
				rep.Watches = append(rep.Watches, s.infoOf(e))
			}
		default: // still being created; skip rather than block /metrics
		}
	}
	return rep
}
