package colseg

import (
	"fmt"
	"sync"

	"repro/internal/colscan"
)

// Store is the sidecar byte store the reader pulls from; dfs.FileSystem
// satisfies it structurally (no import edge — colseg sits below dfs).
// Positioned sidecar reads are charged I/O like any other read.
type Store interface {
	// SidecarStat reports the sidecar's size for path, false if the
	// path has none.
	SidecarStat(path string) (int64, bool)
	// ViewSidecarAt returns the size bytes of the sidecar at off, fewer
	// with a nil error where the sidecar ended. The bytes belong to the
	// store and may be the stored bytes themselves: the reader must not
	// write to them, and the store must never change them afterwards.
	ViewSidecarAt(path string, off, size int64) ([]byte, error)
}

// Reader serves decoded blocks out of persistent sidecars: it is the
// colscan.ColumnStore the scan cache consults before falling back to
// text decode. Footer indexes are parsed once per (path, generation)
// and cached; a chunk load is then one stat, one positioned view of the
// payload where the store holds it, a CRC pass over it and one
// converting, validating pass per column into the block. The Reader
// holds a view only inside the call that asked for it and no Block it
// returns aliases one, so a stored byte is never reachable from
// anything that outlives a load. A Reader is safe for concurrent use.
type Reader struct {
	store Store

	mu  sync.Mutex
	idx map[string]*fileIndex
}

// readerIndexCap bounds the parsed-index cache. When it fills, the
// whole map is dropped (not a random victim: eviction must not make
// sidecar read counts depend on map iteration order — simulated I/O
// metrics are part of the determinism contract).
const readerIndexCap = 1024

// fileIndex is one sidecar's parsed footer, valid while the sidecar
// keeps the same size and write generation.
type fileIndex struct {
	sidecarSize int64
	version     int64
	format      colscan.Format
	cover       int64
	chunks      map[chunkKey]entry
}

type chunkKey struct{ offset, length int64 }

// NewReader builds a Reader over store.
func NewReader(store Store) *Reader {
	return &Reader{store: store, idx: make(map[string]*fileIndex)}
}

// LoadColumns returns the sidecar-backed block for key, read from the
// Reader's store: ok=false when the sidecar is absent, built for a
// different generation or format, or simply does not cover the split
// (all clean misses — the cache decodes text), and an ErrCorrupt-
// wrapping error when a sidecar exists but fails structural or checksum
// verification (the cache logs it and decodes text).
func (r *Reader) LoadColumns(key colscan.BlockKey) (*colscan.Block, bool, error) {
	return r.LoadColumnsVia(nil, key, nil)
}

// LoadColumnsVia implements colscan.ColumnStore: LoadColumns, reading
// through src when src holds sidecars too (a dfs view — a run's pinned
// snapshot, whose reads charge that run), through the Reader's store
// otherwise, and building the block on sp's parked storage. A footer
// parsed once is reused by every later load, which is charged only what
// it reads itself.
func (r *Reader) LoadColumnsVia(src colscan.ReaderAt, key colscan.BlockKey, sp *colscan.Spares) (*colscan.Block, bool, error) {
	store, ok := src.(Store)
	if !ok {
		store = r.store
	}
	size, ok := store.SidecarStat(key.Path)
	if !ok {
		return nil, false, nil
	}
	idx, err := r.index(store, key.Path, key.Version, size)
	if err != nil {
		return nil, false, err
	}
	if idx.version != key.Version || idx.format != key.Format {
		// A stale or other-format sidecar is a miss, not corruption:
		// rewrites race in-flight decodes benignly (the cache refuses
		// to re-populate dead keys), and a format mismatch just means
		// the query parses the file differently than the encoder did.
		return nil, false, nil
	}
	e, ok := idx.chunks[chunkKey{key.Offset, key.Length}]
	if !ok {
		return nil, false, nil
	}
	payload, err := store.ViewSidecarAt(key.Path, e.pos, e.size)
	if err != nil {
		return nil, false, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
	} else if int64(len(payload)) != e.size {
		return nil, false, fmt.Errorf("%w: short payload read (%d of %d)", ErrCorrupt, len(payload), e.size)
	}
	if crc := checksum(payload); crc != e.crc {
		return nil, false, fmt.Errorf("%w: chunk %d+%d checksum %08x != %08x",
			ErrCorrupt, key.Offset, key.Length, crc, e.crc)
	}
	blk, err := decodeChunk(payload, idx.format, key.Offset, sp)
	if err != nil {
		return nil, false, err
	}
	return blk, true, nil
}

// index returns the parsed footer for path's sidecar, reusing the
// cached parse while the sidecar's size and generation are unchanged.
// The lock is held across the parse so concurrent cold loads of one
// file cost exactly one header+footer read — keeping simulated seek
// counts deterministic under any parallelism.
func (r *Reader) index(store Store, path string, version, size int64) (*fileIndex, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.idx[path]; ok && idx.sidecarSize == size && idx.version == version {
		return idx, nil
	}
	idx, err := parseIndex(store, path, size)
	if err != nil {
		return nil, err
	}
	if len(r.idx) >= readerIndexCap {
		r.idx = make(map[string]*fileIndex)
	}
	r.idx[path] = idx
	return idx, nil
}

// parseIndex reads and validates path's header and footer: one
// positioned read for the header+trailer probe regions and one for the
// entry table.
func parseIndex(store Store, path string, size int64) (*fileIndex, error) {
	if size < headerSize+tailSize {
		return nil, fmt.Errorf("%w: sidecar smaller than header+trailer", ErrCorrupt)
	}
	head, err := store.ViewSidecarAt(path, 0, headerSize)
	if err != nil || len(head) < headerSize {
		return nil, fmt.Errorf("%w: read header (%d bytes, %v)", ErrCorrupt, len(head), err)
	}
	h, err := parseHeader(head)
	if err != nil {
		return nil, err
	}
	tail, err := store.ViewSidecarAt(path, size-tailSize, tailSize)
	if err != nil || len(tail) < tailSize {
		return nil, fmt.Errorf("%w: read trailer (%d bytes, %v)", ErrCorrupt, len(tail), err)
	}
	count, footerStart, err := parseTail(tail, size)
	if err != nil {
		return nil, err
	}
	table, err := store.ViewSidecarAt(path, footerStart, int64(count)*entrySize)
	if err != nil || int64(len(table)) < int64(count)*entrySize {
		return nil, fmt.Errorf("%w: read footer (%d bytes, %v)", ErrCorrupt, len(table), err)
	}
	entries, err := parseEntries(table, count, footerStart)
	if err != nil {
		return nil, err
	}
	idx := &fileIndex{
		sidecarSize: size,
		version:     h.version,
		format:      h.format,
		cover:       h.cover,
		chunks:      make(map[chunkKey]entry, len(entries)),
	}
	for _, e := range entries {
		idx.chunks[chunkKey{e.offset, e.length}] = e
	}
	return idx, nil
}
