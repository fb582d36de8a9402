package colscan

import "sync"

// BlockKey identifies one decoded split. Version is the dfs file's
// write generation (stable across Append, new on WriteFile), so a
// rewrite under the same path can never serve stale blocks, while
// appended files keep every already-decoded split hot: append adds new
// segments, it never changes the bytes behind an existing split.
type BlockKey struct {
	Path    string
	Version int64
	Offset  int64
	Length  int64
	Format  Format
}

// DefaultCacheBytes bounds the cache's unheld decoded state.
const DefaultCacheBytes = 256 << 20

// ColumnStore is the persistent columnar sidecar surface the cache
// consults before paying a text decode (internal/colseg's Reader
// implements it). LoadColumnsVia reads the sidecar through r, the
// loading caller's own view of the file, so the read is charged to that
// caller like the text decode it replaces. It returns ok=false for a
// clean miss — no sidecar, stale generation, uncovered split — and an
// error when a sidecar exists but fails verification; the cache counts
// and reports the error (see OnSidecarError) and falls back to text
// decode, so a damaged sidecar can cost speed, never correctness. The
// block is built on sp's parked storage (fresh when sp is nil).
type ColumnStore interface {
	LoadColumnsVia(r ReaderAt, key BlockKey, sp *Spares) (*Block, bool, error)
}

// Cache is the decoded-block cache: K concurrent watches over one file
// re-decode nothing. Loads of the same key are single-flighted (one
// decode, everyone waits on it). A Cache is safe for concurrent use.
//
// Each Load, Peek and LoadSplit through the cache takes a hold on the
// block it returns, and Block.Release gives it back. A held block is
// pinned: it stays in the cache, outside the byte budget and off the
// LRU list, so every overlapping run shares its one decoded copy (it is
// alive anyway). The release that leaves a resident block unheld puts
// it at the LRU front and evicts least-recently-released blocks until
// the budget holds. An evicted block, and an invalidated one once its
// last hold goes, parks its column arrays in the cache's Spares for a
// later sidecar miss to build its columns in (a text decode allocates
// its own). A hold never released pins its block for good.
type Cache struct {
	mu  sync.Mutex
	max int64
	// cur is the bytes of the unheld blocks on the LRU list.
	cur     int64
	entries map[BlockKey]*cacheEntry
	// Intrusive LRU list of the ready, unheld, resident blocks: head is
	// the most recently released.
	head, tail *cacheEntry

	hits, misses int64
	// Memoized selections built, and calls served one (Block.Selection).
	selections, selectionHits int64
	// Held blocks, resident or invalidated, and their bytes.
	held      int
	heldBytes int64
	spares    Spares

	// store, when set, is consulted on every miss before text decode.
	store        ColumnStore
	onSidecarErr func(BlockKey, error)
	sidecarReads int64
	sidecarErrs  int64
}

// cacheEntry is one cached block and the state the cache keeps beside
// it. size is the block's bytes plus its memoized selection's, so the
// memo is held or budgeted with the block it derives from.
type cacheEntry struct {
	c          *Cache
	key        BlockKey
	prev, next *cacheEntry
	once       sync.Once
	blk        *Block
	err        error
	size       int64
	ready      bool // guarded by Cache.mu
	// holds counts the callers holding blk (guarded by Cache.mu). An
	// entry in flight is held by its loader, so holds == 0 means a ready
	// block: on the LRU list while resident, recycled once it is not.
	holds int
	// The one memo slot of Block.Selection: sel, built under selKey
	// (guarded by selMu, which also single-flights its build).
	selMu  sync.Mutex
	selKey string
	sel    []int32
}

// NewCache builds a cache bounded at maxBytes of unheld decoded state
// (DefaultCacheBytes if maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{max: maxBytes, entries: map[BlockKey]*cacheEntry{}}
}

// SetStore attaches the persistent columnar sidecar store misses
// consult before text decode (nil detaches it).
func (c *Cache) SetStore(s ColumnStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = s
}

// OnSidecarError registers fn to be called whenever a sidecar read
// fails verification (once per failed load, outside the cache lock).
// The load itself proceeds on the text-decode path; the hook is where
// the server logs the corruption sentinel.
func (c *Cache) OnSidecarError(fn func(BlockKey, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onSidecarErr = fn
}

// CacheStats is a point-in-time counters snapshot.
type CacheStats struct {
	Hits, Misses int64
	// Bytes is the unheld blocks' bytes, their memoized selections
	// included, against the MaxBytes budget.
	Bytes    int64
	MaxBytes int64
	Blocks   int
	// SidecarReads counts misses served from the persistent columnar
	// sidecar instead of a text decode; SidecarErrors counts sidecar
	// loads that failed verification and fell back to text.
	SidecarReads  int64
	SidecarErrors int64
	// Held and HeldBytes count the blocks some caller holds, and their
	// bytes: decoded state outside the budget, whether still resident or
	// invalidated by a rewrite, memoized selections included. Recycled
	// counts sidecar misses built on the storage of an evicted or
	// invalidated block.
	Held      int
	HeldBytes int64
	Recycled  int64
	// Selections counts the selections Block.Selection built and
	// memoized on a cached block; SelectionHits the calls a memo served.
	Selections    int64
	SelectionHits int64
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Bytes: c.cur, MaxBytes: c.max, Blocks: len(c.entries),
		SidecarReads: c.sidecarReads, SidecarErrors: c.sidecarErrs,
		Held: c.held, HeldBytes: c.heldBytes, Recycled: c.spares.reused.Load(),
		Selections: c.selections, SelectionHits: c.selectionHits,
	}
}

// Peek returns the block for key if it is already decoded, without
// triggering a decode, and takes a hold on it. Samplers use it to adopt
// blocks another watch paid for before their own decode threshold is
// reached.
func (c *Cache) Peek(key BlockKey) (*Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.ready || e.err != nil {
		return nil, false
	}
	c.hits++
	c.holdLocked(e)
	return e.blk, true
}

// Load returns the decoded block for key, loading it exactly once per
// key no matter how many goroutines ask: from the sidecar store when
// one covers the split, by text decode via r (bounded by fileSize)
// otherwise. Each call takes a hold on the block it returns — a caller
// joining a load in flight takes it before it waits. Failed loads are
// not cached: the error is returned to every waiter of that flight and
// the next Load retries.
func (c *Cache) Load(r ReaderAt, fileSize int64, key BlockKey) (*Block, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		// A hit, or a join of the flight decoding it: either way this
		// call decodes nothing.
		c.hits++
		c.holdLocked(e)
	} else {
		e = &cacheEntry{c: c, key: key, holds: 1}
		c.entries[key] = e
		c.misses++
	}
	c.mu.Unlock()

	e.once.Do(func() {
		blk, err := c.loadBlock(r, fileSize, key)
		c.mu.Lock()
		defer c.mu.Unlock()
		e.blk, e.err = blk, err
		e.ready = true
		resident := c.entries[key] == e
		if err != nil {
			// Do not cache failures: drop the entry so a later Load
			// (e.g. after the bad data is rewritten) retries.
			if resident {
				delete(c.entries, key)
			}
			return
		}
		// Held by every caller that waited on it, the block lands
		// pinned. If the key was invalidated while this load was in
		// flight (a rewrite under the same path) it serves its waiters
		// and is recycled by the last release, never cached under the
		// dead key.
		blk.own = e
		e.size = blk.SizeBytes()
		c.held++
		c.heldBytes += e.size
	})
	return e.blk, e.err
}

// holdLocked takes one hold on e. The first hold on a ready block pins
// it: off the LRU list and out of the budget.
func (c *Cache) holdLocked(e *cacheEntry) {
	if e.holds == 0 {
		c.unlink(e)
		c.cur -= e.size
		c.held++
		c.heldBytes += e.size
	}
	e.holds++
}

// selection serves Block.Selection for e's block, which the caller
// holds: the memo on a hit; otherwise build's result, copied to its
// exact length and published in the slot, its bytes moving into e.size
// and with it into the held bytes. The array it displaces is left to
// the collector, never parked: a fill may still be reading it.
func (c *Cache) selection(e *cacheEntry, key string, build func() []int32) []int32 {
	e.selMu.Lock()
	defer e.selMu.Unlock()
	if e.sel != nil && e.selKey == key {
		c.mu.Lock()
		c.selectionHits++
		c.mu.Unlock()
		return e.sel
	}
	kept := build()
	sel := make([]int32, len(kept))
	copy(sel, kept)
	grow := selBytes(key, sel) - selBytes(e.selKey, e.sel)
	e.selKey, e.sel = key, sel
	c.mu.Lock()
	defer c.mu.Unlock()
	c.selections++
	e.size += grow
	c.heldBytes += grow
	return sel
}

// selBytes is what a memoized selection adds to its entry's size.
func selBytes(key string, sel []int32) int64 {
	if sel == nil {
		return 0
	}
	return int64(len(key)) + 4*int64(len(sel))
}

// release gives back one hold on e's block. The last one puts a
// resident block back on the LRU list, trimming the cache to its budget,
// and recycles an invalidated block's storage.
func (c *Cache) release(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.holds--
	switch {
	case e.holds < 0:
		panic("colscan: Block released more often than it was handed out")
	case e.holds > 0:
		return
	}
	c.held--
	c.heldBytes -= e.size
	if c.entries[e.key] != e {
		c.recycleLocked(e.blk)
		return
	}
	c.pushFront(e)
	c.cur += e.size
	c.evictLocked()
}

// recycleLocked parks b's column arrays for the next miss to decode
// into. It first empties the block, so a read through it after its last
// release fails loudly instead of returning another block's records.
func (c *Cache) recycleLocked(b *Block) {
	c.spares.u32.Put(b.offs)
	c.spares.u32.Put(b.keys)
	c.spares.f64.Put(b.vals)
	b.offs, b.vals, b.keys = nil, nil, nil
}

// loadBlock resolves one miss: sidecar first, text decode second.
func (c *Cache) loadBlock(r ReaderAt, fileSize int64, key BlockKey) (*Block, error) {
	c.mu.Lock()
	store, hook := c.store, c.onSidecarErr
	c.mu.Unlock()
	if store != nil {
		blk, ok, err := store.LoadColumnsVia(r, key, &c.spares)
		switch {
		case err != nil:
			c.mu.Lock()
			c.sidecarErrs++
			c.mu.Unlock()
			if hook != nil {
				hook(key, err)
			}
		case ok:
			c.mu.Lock()
			c.sidecarReads++
			c.mu.Unlock()
			return blk, nil
		}
	}
	return Decode(r, key.Path, fileSize, key.Offset, key.Length, key.Format)
}

// InvalidatePath drops every block of path — the WriteFile/Rewrite
// hook. Version keying already protects correctness for ready blocks;
// dropping in-flight entries as well keeps a decode racing the rewrite
// from re-populating the cache under the dead (path, version) key.
func (c *Cache) InvalidatePath(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if key.Path != path {
			continue
		}
		delete(c.entries, key)
		// A held or in-flight block stays intact for its holders and
		// is recycled by its last release.
		if e.holds == 0 {
			c.unlink(e)
			c.cur -= e.size
			c.recycleLocked(e.blk)
		}
	}
}

// evictLocked drops least-recently-released blocks until the budget
// holds. Every block on the list is unheld, so each step evicts one.
func (c *Cache) evictLocked() {
	for c.cur > c.max {
		e := c.tail
		delete(c.entries, e.key)
		c.unlink(e)
		c.cur -= e.size
		c.recycleLocked(e.blk)
	}
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// LoadSplit decodes the split [off,+length) of path, through cache c
// when non-nil (keyed by the file's write version, taking a hold on the
// block), directly otherwise.
func LoadSplit(c *Cache, r ReaderAt, path string, version, fileSize, off, length int64, f Format) (*Block, error) {
	if c == nil {
		return Decode(r, path, fileSize, off, length, f)
	}
	return c.Load(r, fileSize, BlockKey{Path: path, Version: version, Offset: off, Length: length, Format: f})
}
