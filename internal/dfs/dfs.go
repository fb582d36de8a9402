// Package dfs is an in-process simulation of HDFS, the storage substrate
// the paper's EARL prototype runs on. It reproduces the pieces of HDFS
// that EARL's design actually leans on (§1, §2.1, §3.3 of the paper):
//
//   - files are split into fixed-size blocks (64 MB default) with
//     metadata held by a NameNode and block bytes held by DataNodes;
//   - blocks are replicated; reads retry with backoff across surviving
//     replicas, which is what lets EARL keep answering through node
//     failures (§3.4);
//   - files expose *logical splits* (the "InputSplit" of MapReduce) and a
//     LineRecordReader with Hadoop's exact split-boundary semantics: a
//     reader whose split starts mid-line skips that partial line (its
//     owner is the previous split) and reads past its split end to finish
//     its last line;
//   - random positioned reads, used by the pre-map sampler (Algorithm 2),
//     are charged a disk seek in the cost metrics.
//
// # Commit journal and snapshots
//
// Every namespace mutation — WriteFile, Append, Delete — is one commit:
// validated at the entry point, framed as a CRC-verified record in the
// filesystem's journal (internal/journal), and only then applied to the
// in-memory namespace. The journal is the durable truth: Recover replays
// one onto a fresh filesystem, truncating a torn final record (the shape
// a crash leaves) and rebuilding every file, sidecar and write generation
// deterministically.
//
// Each commit publishes one immutable namespace — the commit's sequence
// number and every path's file state, itself immutable — and a Snapshot
// is that value, held: it serves every read — ReadAt, Splits, State,
// sidecar reads, line readers — from that one consistent world
// whatever rewrites, appends and deletes land afterwards, for as long as
// anything holds it. There is no version chain to walk and nothing to
// unpin: a superseded state lives exactly as long as something can still
// reach it, which is the garbage collector's question, not ours. All
// mutations to committed state happen inside apply*-prefixed functions
// reachable only from the commit helper (machine-checked by earlvet's
// journalcommit analyzer), so no code path can mutate the namespace
// without a journal record.
//
// # Reads take no lock
//
// Committed state is published, not guarded: a commit builds the
// successor namespace and stores it behind one atomic pointer, and a
// read loads it (the live view) or already holds one (a Snapshot),
// looks up one *fileMeta and works on it for as long as it likes. A
// block's bytes hang off its *blockMeta (they are a slice of the journal
// frame that committed them: an ingested byte is stored once), beside a
// replica list fixed at placement; node liveness and the fault plan are
// atomics. The one mutex serialises writers — commits, KillDataNode,
// Compact, the fault hooks — and no method of View, nor taking or
// releasing a Snapshot, ever takes it.
//
// # Columnar sidecars
//
// Each file version also carries a view of its columnar sidecar
// (internal/colseg) — derived state, built at ingest and never
// journaled; sidecar.go has the policy. The byte layout is colseg's,
// but a view holds it in pieces: a header, runs of chunk payloads, a
// footer. An Append's successor shares every run with its predecessor
// and adds only a new header, the new segment's chunk bytes and a new
// footer, so an append costs the batch plus per-segment metadata
// however large the file, and a Snapshot keeps its own header, footer
// and size. New chunk bytes are packed into append-only extents
// under a tip-ownership rule (the sidecar type states it) that never
// writes a byte another version can read.
//
// Block payloads live in memory; the simcost.Metrics hooks account for
// the I/O that a disk-backed deployment would perform.
package dfs

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/simcost"
)

// DefaultBlockSize mirrors HDFS's classic 64 MB block.
const DefaultBlockSize = 64 << 20

// Errors returned by the filesystem.
var (
	ErrNotFound = errors.New("dfs: file not found")
	// ErrUnavailable is the transient per-attempt read failure: the
	// replica chosen for one attempt was dead, missing the block, or hit
	// an injected fault. The read path retries with backoff across
	// replicas before giving up with ErrNoReplica.
	ErrUnavailable = errors.New("dfs: no live replica for block")
	// ErrNoReplica is returned when a block read exhausts its retry
	// budget without finding a live replica — the §3.4 failure a run
	// tolerates by finishing on surviving data. errors.Is-able.
	ErrNoReplica   = errors.New("dfs: block unreadable after retries")
	ErrNoDataNodes = errors.New("dfs: no live datanodes")
	// ErrUnalignedAppend is returned by Append when the existing file does
	// not end with a newline: the boundary record would span the old and
	// new segments, so existing splits could no longer own stable record
	// sets — the invariant continuous ingest depends on.
	ErrUnalignedAppend = errors.New("dfs: append to file without trailing newline")
	// ErrCrashed is returned by mutations after an injected
	// crash-at-commit-point fault fired (FaultPlan.CrashAtCommit): the
	// filesystem refuses further commits, and JournalBytes returns the
	// crash image Recover replays.
	ErrCrashed = errors.New("dfs: filesystem crashed at injected commit point")
)

// Read retry policy: bounded attempts with exponential backoff, spread
// across replicas (each attempt advances the round-robin tick).
const (
	readAttempts    = 6
	readBackoffBase = 50 * time.Microsecond
)

// Config configures a FileSystem.
type Config struct {
	BlockSize   int64            // bytes per block; DefaultBlockSize if zero
	Replication int              // replicas per block; 3 if zero
	DataNodes   int              // cluster size; 5 (the paper's testbed) if zero
	Metrics     *simcost.Metrics // optional I/O accounting sink
	Seed        uint64           // seed for replica placement decisions
	// DisableSidecars turns off the automatic columnar sidecar encoding
	// at WriteFile/Append (see sidecar.go). The explicit Compact entry
	// point still builds one — the knob gates ingest-time work only.
	DisableSidecars bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.DataNodes <= 0 {
		c.DataNodes = 5
	}
	return c
}

// FileSystem is the simulated distributed filesystem: NameNode metadata
// plus the DataNode block stores. All methods are safe for concurrent use.
type FileSystem struct {
	// mu serialises writers: commits, node liveness changes, the fault
	// plan, Compact and the sidecar fault hooks. Reads and snapshots
	// never take it (see "Reads take no lock" in the package comment).
	mu       sync.Mutex
	cfg      Config
	rng      *rand.Rand // guarded by mu; used for placement only
	readTick atomic.Int64
	nextID   int64
	nodes    []*dataNode
	// ns is the published namespace: the last commit's. It is never nil
	// and never written once stored — a commit stores its successor.
	ns atomic.Pointer[namespace]
	// jlog is the commit journal — the durable truth every mutation is
	// framed into before it is applied, and the memory block payloads are
	// cut from.
	jlog *journal.Log
	// pins counts the Snapshots taken and not yet released — a gauge for
	// leak checks and /metrics; nothing is kept alive or freed by it.
	pins      atomic.Int64
	crashed   bool // an injected crash fired; mutations refuse
	faults    atomic.Pointer[FaultPlan]
	recovered *RecoverStats // set when this filesystem came from Recover
	metrics   *simcost.Metrics
}

// dataNode is one DataNode: an id and the liveness reads consult. A read
// reaches a block's bytes through the *blockMeta, never through here.
type dataNode struct {
	id    int
	alive atomic.Bool
}

// namespace is the filesystem as of one commit: every path that exists
// after commit seq, bound to its file state. Immutable once published;
// whoever holds one — the filesystem its latest, a Snapshot its own —
// reads that commit for as long as it likes.
type namespace struct {
	seq   int64
	files map[string]*fileMeta
}

// state is one namespace read through its filesystem (block size, node
// liveness, fault plan) and charged to one ledger. It carries the View
// methods once: FileSystem's are live()'s, a Snapshot embeds the one it
// took.
type state struct {
	fs     *FileSystem
	ns     *namespace
	ledger *simcost.Metrics // what every read through this state charges
}

// fileMeta is one immutable committed state of a file. Appends clone it
// (sharing the unchanged *blockMeta prefix — payloads never mutate);
// rewrites start a fresh one. The sidecar field is derived columnar
// state (rebuildable from the file bytes, never journaled) and is the
// one field replaced outside the commit path, hence atomic.
type fileMeta struct {
	size     int64
	blocks   []*blockMeta
	segments []int64 // start offset of every write/append segment, ascending
	// version is the file's write generation: a fresh id per WriteFile,
	// stable across Append (appends add segments, they never change the
	// bytes behind an existing offset). Decoded-block caches key on it,
	// and maintained queries detect rewrites by it changing.
	version int64
	// sidecar is this version's view of the file's persistent columnar
	// segment encoding (internal/colseg), nil when it has none. Derived
	// state — rebuildable at any time, never replicated or journaled:
	// losing one costs a text decode, not data.
	sidecar atomic.Pointer[sidecar]
}

// blockMeta is one block: where it sits in its file, its bytes, and
// which DataNodes hold a copy. All of it is fixed at placement.
type blockMeta struct {
	id       int64
	offset   int64 // offset of this block within the file
	size     int64
	payload  []byte // a slice of the journal frame that committed it; never written
	replicas []int  // the datanode ids holding a copy
}

// New creates a filesystem with cfg.
func New(cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	fs := &FileSystem{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x6a09e667f3bcc908)),
		jlog:    journal.New(),
		metrics: cfg.Metrics,
	}
	fs.applyInit()
	for i := 0; i < cfg.DataNodes; i++ {
		node := &dataNode{id: i}
		node.alive.Store(true)
		fs.nodes = append(fs.nodes, node)
	}
	return fs
}

// applyInit publishes the empty namespace a new filesystem starts from:
// commit 0, the one state no journal record describes.
func (fs *FileSystem) applyInit() { fs.ns.Store(&namespace{}) }

// BlockSize returns the configured block size.
func (fs *FileSystem) BlockSize() int64 { return fs.cfg.BlockSize }

// LiveDataNodes returns the ids of DataNodes currently alive.
func (fs *FileSystem) LiveDataNodes() []int {
	var ids []int
	for _, n := range fs.nodes {
		if n.alive.Load() {
			ids = append(ids, n.id)
		}
	}
	return ids
}

// live returns the filesystem's state as of the last commit.
func (fs *FileSystem) live() state { return state{fs: fs, ns: fs.ns.Load(), ledger: fs.metrics} }

// file resolves path's committed state, ErrNotFound when the namespace
// has no such path. The state is immutable, and stays readable whatever
// commits land while the caller works on it.
func (s state) file(path string) (*fileMeta, error) {
	meta, ok := s.ns.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return meta, nil
}

// WriteFile stores data at path, replacing any existing file, as one
// journaled commit. Data is partitioned into blocks and each block is
// replicated across distinct live DataNodes (fewer if the cluster is
// smaller than the replication factor). Write I/O is charged once per
// replica. The superseded file state stays readable through Snapshots
// taken before the commit.
func (fs *FileSystem) WriteFile(path string, data []byte) error {
	if path == "" {
		return errors.New("dfs: empty path")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.LiveDataNodes()) == 0 {
		return ErrNoDataNodes
	}
	return fs.commitLocked(journal.OpWrite, path, data)
}

// Append adds data to the end of path as a fresh *segment* commit: new
// blocks are cut from the old end-of-file (never extending the last
// block) and replicated across live DataNodes like any other write.
// Existing blocks, their replicas, and the logical splits over them are
// untouched — the stability continuous ingest relies on, letting a
// maintained query process only the appended region.
//
// The existing file must end with a newline (record-aligned appends);
// otherwise ErrUnalignedAppend is returned. Appending to a missing path
// creates the file.
func (fs *FileSystem) Append(path string, data []byte) error {
	if path == "" {
		return errors.New("dfs: empty path")
	}
	if len(data) == 0 {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.LiveDataNodes()) == 0 {
		return ErrNoDataNodes
	}
	if meta := fs.ns.Load().files[path]; meta != nil && meta.size > 0 {
		last := meta.blocks[len(meta.blocks)-1]
		payload, err := fs.replicaPayload(last)
		if err != nil {
			return err
		}
		if len(payload) == 0 || payload[len(payload)-1] != '\n' {
			return fmt.Errorf("%w: %s", ErrUnalignedAppend, path)
		}
	}
	return fs.commitLocked(journal.OpAppend, path, data)
}

// Delete removes path as one journaled commit. Snapshots taken before
// the commit keep reading the file.
func (fs *FileSystem) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := fs.live().file(path); err != nil {
		return err
	}
	return fs.commitLocked(journal.OpDelete, path, nil)
}

// commitLocked is THE mutation choke point: it frames one validated
// mutation as a journal record and dispatches to the apply function
// that publishes the successor namespace under the record's sequence.
// Every namespace mutation — live traffic and Recover replay alike —
// funnels through here; nothing else may touch committed state
// (enforced by the journalcommit analyzer). What is applied is the journal's copy of
// data, not the caller's: block payloads are cut from the frame, so the
// caller may reuse its slice the moment the call returns.
func (fs *FileSystem) commitLocked(op journal.Op, path string, data []byte) error {
	if fs.crashed {
		return ErrCrashed
	}
	seq := fs.jlog.Records() + 1
	if fp := fs.faults.Load(); fp != nil && fp.CrashAtCommit > 0 && seq >= fp.CrashAtCommit {
		// The injected crash strikes while this commit's record is being
		// written: with TornTail the journal keeps a half-written frame
		// (Recover must detect and truncate it), without it the record
		// never reached the disk at all. Either way the mutation is not
		// applied — no block is cut from the frame about to be torn — and
		// the filesystem refuses further commits.
		fs.crashed = true
		if fp.TornTail {
			before := fs.jlog.Size()
			fs.jlog.Append(op, path, data)
			fs.jlog.Tear((fs.jlog.Size() - before + 1) / 2)
		}
		return ErrCrashed
	}
	data = fs.jlog.Append(op, path, data)
	switch op {
	case journal.OpWrite:
		fs.applyWrite(seq, path, data)
	case journal.OpAppend:
		fs.applyAppend(seq, path, data)
	case journal.OpDelete:
		fs.applyDelete(seq, path)
	}
	return nil
}

// applyWrite installs a fresh file state for path: new write generation,
// new blocks, new sidecar.
func (fs *FileSystem) applyWrite(seq int64, path string, data []byte) {
	live := fs.LiveDataNodes()
	fs.nextID++
	meta := &fileMeta{size: int64(len(data)), segments: []int64{0}, version: fs.nextID}
	fs.applyBlocks(meta, data, 0, live)
	meta.sidecar.Store(fs.buildSidecar(meta, data))
	fs.applyPublish(seq, path, meta)
}

// applyAppend installs a cloned file state extended by one segment. The
// clone shares the unchanged block prefix with its predecessor —
// payloads are immutable, so snapshots and the live state read the same
// bytes through the shared *blockMeta entries.
func (fs *FileSystem) applyAppend(seq int64, path string, data []byte) {
	cur, ok := fs.ns.Load().files[path]
	if !ok {
		// Creating via Append is a write generation like WriteFile: a
		// deleted-and-recreated path must never alias its predecessor's
		// decoded blocks.
		fs.applyWrite(seq, path, data)
		return
	}
	live := fs.LiveDataNodes()
	base := cur.size
	meta := &fileMeta{
		size:     base + int64(len(data)),
		blocks:   append([]*blockMeta(nil), cur.blocks...),
		segments: append(append([]int64(nil), cur.segments...), base),
		version:  cur.version,
	}
	fs.applyBlocks(meta, data, base, live)
	meta.sidecar.Store(fs.extendSidecar(cur.sidecar.Load(), meta, data, base))
	fs.applyPublish(seq, path, meta)
}

// applyDelete unbinds path.
func (fs *FileSystem) applyDelete(seq int64, path string) {
	fs.applyPublish(seq, path, nil)
}

// applyBlocks partitions data — the journal frame's copy — into blocks
// starting at file offset base, replicates each across distinct live
// DataNodes (random placement, like HDFS's rack-unaware policy on a flat
// topology) and attaches them to meta. A payload is a capacity-clipped
// slice of data, not a copy. Write I/O is charged once per replica.
func (fs *FileSystem) applyBlocks(meta *fileMeta, data []byte, base int64, live []int) {
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0 && base == 0); off += fs.cfg.BlockSize {
		end := off + fs.cfg.BlockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		perm := fs.rng.Perm(len(live))
		nrep := min(fs.cfg.Replication, len(live))
		replicas := make([]int, nrep)
		for i, pi := range perm[:nrep] {
			replicas[i] = live[pi]
		}
		fs.metrics.Charge(simcost.Snapshot{BytesWritten: int64(nrep) * (end - off)})
		meta.blocks = append(meta.blocks, &blockMeta{
			id: fs.nextID, offset: base + off, size: end - off, payload: data[off:end:end], replicas: replicas,
		})
		fs.nextID++
		if len(data) == 0 {
			break
		}
	}
}

// applyPublish publishes commit seq's namespace — its predecessor's
// with path bound to meta, unbound when meta is nil. The published map
// is never written (a reader may be looking a path up in it), so the
// successor is a copy: O(paths) per commit, on namespaces of a handful
// of paths.
func (fs *FileSystem) applyPublish(seq int64, path string, meta *fileMeta) {
	old := fs.ns.Load()
	files := make(map[string]*fileMeta, len(old.files)+1)
	maps.Copy(files, old.files)
	if meta != nil {
		files[path] = meta
	} else {
		delete(files, path)
	}
	fs.ns.Store(&namespace{seq: seq, files: files})
}

// Version returns the file's write generation: fresh per WriteFile,
// stable across Append. (path, Version, offset) uniquely identifies
// immutable content, which is what the colscan block cache keys on.
func (s state) Version(path string) (int64, error) {
	meta, err := s.file(path)
	if err != nil {
		return 0, err
	}
	return meta.version, nil
}

func (fs *FileSystem) Version(path string) (int64, error) { return fs.live().Version(path) }

// Stat returns the size of the file at path.
func (s state) Stat(path string) (size int64, err error) {
	meta, err := s.file(path)
	if err != nil {
		return 0, err
	}
	return meta.size, nil
}

func (fs *FileSystem) Stat(path string) (int64, error) { return fs.live().Stat(path) }

// FileState names a file's bytes as of one commit: its write generation
// and its size. WriteFile gives a file a fresh, larger Version, and
// within a version only an Append changes the state, by growing Size —
// so two equal states are the same bytes, and a file's state only moves
// forward (After).
type FileState struct{ Version, Size int64 }

// After reports whether st is a later state of the file than o.
func (st FileState) After(o FileState) bool {
	return st.Version > o.Version || st.Version == o.Version && st.Size > o.Size
}

// State returns path's Version and size, both from the one commit the
// state holds.
func (s state) State(path string) (FileState, error) {
	meta, err := s.file(path)
	if err != nil {
		return FileState{}, err
	}
	return FileState{Version: meta.version, Size: meta.size}, nil
}

func (fs *FileSystem) State(path string) (FileState, error) { return fs.live().State(path) }

// List returns all paths with the given prefix, sorted.
func (s state) List(prefix string) []string {
	var out []string
	for p := range s.ns.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func (fs *FileSystem) List(prefix string) []string { return fs.live().List(prefix) }

// ReadFile returns the whole contents of path — one committed state's,
// whatever lands meanwhile — retrying across replicas per block. A
// sequential whole-file read is charged one seek.
func (s state) ReadFile(path string) ([]byte, error) {
	meta, err := s.file(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, meta.size)
	if meta.size == 0 {
		return buf, nil
	}
	if _, err := s.readMeta(meta, 0, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (fs *FileSystem) ReadFile(path string) ([]byte, error) { return fs.live().ReadFile(path) }

// ReadAt fills p with file bytes starting at off, charging one disk seek
// (this is the random-access path the pre-map sampler uses). It returns
// the number of bytes read; n < len(p) with a nil error means EOF was
// reached.
func (s state) ReadAt(path string, off int64, p []byte) (int, error) {
	meta, err := s.file(path)
	if err != nil {
		return 0, err
	}
	return s.readMeta(meta, off, p)
}

func (fs *FileSystem) ReadAt(path string, off int64, p []byte) (int, error) {
	return fs.live().ReadAt(path, off, p)
}

// readMeta is one positioned read of one resolved file state: p filled
// from off, one seek and the bytes it got charged.
func (s state) readMeta(meta *fileMeta, off int64, p []byte) (int, error) {
	var cost simcost.Snapshot
	n, err := s.gatherMeta(meta, off, p, &cost)
	s.ledger.Charge(cost)
	return n, err
}

// gatherMeta is readMeta adding its seek and bytes to tally instead of
// charging them.
func (s state) gatherMeta(meta *fileMeta, off int64, p []byte, tally *simcost.Snapshot) (int, error) {
	if off < 0 {
		return 0, errors.New("dfs: negative offset")
	}
	if off >= meta.size {
		return 0, nil
	}
	want := int64(len(p))
	if off+want > meta.size {
		want = meta.size - off
	}
	var n int64
	for n < want {
		pos := off + n
		bi := meta.blockAt(pos)
		if bi >= len(meta.blocks) {
			break
		}
		blk := meta.blocks[bi]
		payload, err := s.fs.replicaPayload(blk)
		if err != nil {
			tally.DiskSeeks, tally.BytesRead = tally.DiskSeeks+1, tally.BytesRead+n
			return int(n), err
		}
		inBlk := pos - blk.offset
		n += int64(copy(p[n:want], payload[inBlk:]))
	}
	tally.DiskSeeks, tally.BytesRead = tally.DiskSeeks+1, tally.BytesRead+n
	return int(n), nil
}

// blockAt returns the index of the block owning file offset pos
// (len(blocks) past the end). Blocks are contiguous and sorted by offset
// but not uniformly sized (appends cut a fresh block at the old
// end-of-file), so the owner is found by search, not division.
func (m *fileMeta) blockAt(pos int64) int {
	return sort.Search(len(m.blocks), func(i int) bool {
		return m.blocks[i].offset+m.blocks[i].size > pos
	})
}

// replicaPayload returns a replica's bytes for blk, retrying with
// exponential backoff across live replicas: each attempt advances the
// round-robin tick to the next live replica, so a dead node or an
// injected transient fault costs one backoff step, not the read. A read
// that exhausts its budget fails wrapping ErrNoReplica. It holds no
// lock, so a backoff or a slow replica delays this reader alone.
// (fs.rng cannot be used here: readers share no mutable random state.)
func (fs *FileSystem) replicaPayload(blk *blockMeta) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(readBackoffBase << uint(attempt-1))
		}
		err := fs.replicaAttempt(blk, attempt)
		if err == nil {
			return blk.payload, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: block %d after %d attempts: %v", ErrNoReplica, blk.id, readAttempts, lastErr)
}

// replicaAttempt performs one replica read attempt for blk: nil when
// the replica the tick picked served it.
func (fs *FileSystem) replicaAttempt(blk *blockMeta, attempt int) error {
	fp := fs.faults.Load()
	if fp != nil && fp.readErrorFires(blk.id, attempt) {
		return fmt.Errorf("%w: injected read fault on block %d", ErrUnavailable, blk.id)
	}
	// The tick picks among the live replicas in replica order. Liveness is
	// read once per replica — a node may die or come back while this
	// runs — into a list that stays on the stack: this runs per block read.
	var buf [8]int
	live := buf[:0]
	for _, id := range blk.replicas {
		if fs.nodes[id].alive.Load() {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("%w: block %d", ErrUnavailable, blk.id)
	}
	nid := live[int(fs.readTick.Add(1))%len(live)]
	if fp != nil && fp.slowNode(nid) {
		time.Sleep(fp.SlowDelay)
	}
	return nil
}

// KillDataNode marks a node dead. Blocks whose every replica is dead
// become unreadable (ErrNoReplica after retries) — exactly the failure
// mode §3.4 tolerates by finishing with an accuracy estimate instead of
// restarting.
func (fs *FileSystem) KillDataNode(id int) error {
	return fs.setAlive(id, false)
}

// ReviveDataNode brings a dead node (and its blocks) back.
func (fs *FileSystem) ReviveDataNode(id int) error {
	return fs.setAlive(id, true)
}

func (fs *FileSystem) setAlive(id int, alive bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id < 0 || id >= len(fs.nodes) {
		return fmt.Errorf("dfs: no datanode %d", id)
	}
	fs.nodes[id].alive.Store(alive)
	return nil
}
