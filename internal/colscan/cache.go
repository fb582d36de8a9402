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

// DefaultCacheBytes bounds the cache's retained decoded state.
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
// decode, everyone waits on it), and ready blocks are evicted LRU by
// retained bytes. A Cache is safe for concurrent use.
//
// Each Load, Peek and LoadSplit through the cache takes a hold on the
// block it returns, and Block.Release gives it back. Residency counts as
// a hold too: an evicted or invalidated block stays intact while held,
// and its last release parks its column arrays in the cache's Spares
// for a later sidecar miss to build its columns in (a text decode
// allocates its own). A hold never released only forgoes that reuse.
type Cache struct {
	mu      sync.Mutex
	max     int64
	cur     int64
	entries map[BlockKey]*cacheEntry
	// Intrusive LRU list: head is most recent.
	head, tail *cacheEntry

	hits, misses int64
	// Blocks evicted or invalidated while held, and their bytes.
	held      int
	heldBytes int64
	spares    Spares

	// store, when set, is consulted on every miss before text decode.
	store        ColumnStore
	onSidecarErr func(BlockKey, error)
	sidecarReads int64
	sidecarErrs  int64
}

type cacheEntry struct {
	c          *Cache
	key        BlockKey
	prev, next *cacheEntry
	once       sync.Once
	blk        *Block
	err        error
	size       int64
	ready      bool // guarded by Cache.mu
	// holds counts the callers holding blk (guarded by Cache.mu); blk is
	// recycled once it is 0 and the entry is out of c.entries.
	holds int
}

// NewCache builds a cache bounded at maxBytes of retained decoded state
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
	Bytes        int64
	MaxBytes     int64
	Blocks       int
	// SidecarReads counts misses served from the persistent columnar
	// sidecar instead of a text decode; SidecarErrors counts sidecar
	// loads that failed verification and fell back to text.
	SidecarReads  int64
	SidecarErrors int64
	// Held and HeldBytes count the blocks evicted or invalidated while
	// held, and their bytes: decoded state outside the budget. Recycled
	// counts sidecar misses built on a released block's storage.
	Held      int
	HeldBytes int64
	Recycled  int64
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
	c.touch(e)
	c.hits++
	e.holds++
	return e.blk, true
}

// Load returns the decoded block for key, loading it exactly once per
// key no matter how many goroutines ask: from the sidecar store when
// one covers the split, by text decode via r (bounded by fileSize)
// otherwise. Each call takes a hold on the block it returns — a caller
// joining a load in flight takes it before it waits, so no eviction can
// recycle the block under it. Failed loads are not cached: the error is
// returned to every waiter of that flight and the next Load retries.
func (c *Cache) Load(r ReaderAt, fileSize int64, key BlockKey) (*Block, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		// A hit, or a join of the flight decoding it: either way this
		// call decodes nothing.
		c.touch(e)
		c.hits++
	} else {
		e = &cacheEntry{c: c, key: key}
		c.entries[key] = e
		c.pushFront(e)
		c.misses++
	}
	e.holds++
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
				c.unlink(e)
			}
			return
		}
		blk.own = e
		e.size = blk.SizeBytes()
		if !resident {
			// The key was invalidated while this load was in flight (a
			// rewrite under the same path): serve the waiters, but do
			// not re-populate the cache under the dead key — and do not
			// account bytes the map no longer references.
			c.dropLocked(e)
			return
		}
		c.cur += e.size
		c.evictLocked(e)
	})
	return e.blk, e.err
}

// release gives back one hold on e's block; the last one of a block the
// cache has dropped recycles its storage.
func (c *Cache) release(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.holds--
	switch {
	case e.holds < 0:
		panic("colscan: Block released more often than it was handed out")
	case e.holds == 0 && c.entries[e.key] != e:
		c.held--
		c.heldBytes -= e.size
		c.recycleLocked(e.blk)
	}
}

// dropLocked takes the residency hold from e, just removed from the map:
// its block is recycled if nobody else holds it, counted as held if
// somebody does.
func (c *Cache) dropLocked(e *cacheEntry) {
	if e.holds == 0 {
		c.recycleLocked(e.blk)
		return
	}
	c.held++
	c.heldBytes += e.size
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
		c.unlink(e)
		if e.ready { // an in-flight load accounts its block when it lands
			c.cur -= e.size
			c.dropLocked(e)
		}
	}
}

// evictLocked drops least-recently-used ready blocks until the budget
// holds, never evicting keep (the entry just loaded — a block larger
// than the whole budget must still be served once).
func (c *Cache) evictLocked(keep *cacheEntry) {
	e := c.tail
	for c.cur > c.max && e != nil {
		prev := e.prev
		if e != keep && e.ready && e.err == nil {
			delete(c.entries, e.key)
			c.unlink(e)
			c.cur -= e.size
			c.dropLocked(e)
		}
		e = prev
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

func (c *Cache) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
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
