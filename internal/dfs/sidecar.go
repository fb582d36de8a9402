package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/colscan"
	"repro/internal/colseg"
	"repro/internal/simcost"
)

// Sidecar policy: the filesystem builds a persistent columnar segment
// sidecar (internal/colseg) for every ingested file whose records the
// columnar validators accept, so cold reads skip the text decode. A
// sidecar is derived state — never the source of truth — which sets the
// gating rules:
//
//   - files below sidecarMinBytes are skipped: too small to ever repay
//     the encode (there is no engine-internal namespace to exempt — a
//     query writes nothing to the filesystem);
//   - appends extend the sidecar only for batches of at least
//     sidecarAppendMinBytes; smaller batches leave coverage behind
//     (reads of the uncovered tail fall back to text decode) until the
//     next such batch, which first extends over every segment they left
//     uncovered, or an explicit Compact re-encodes to full coverage;
//   - a file with any record the colscan validators reject gets no
//     sidecar at all, keeping the text decoder the single authority on
//     decode errors (a NaN-poisoned file must fail a run the same way
//     whether or not a sidecar scheme exists).
//
// Because a sidecar is derived, it is NOT journaled: Recover rebuilds
// sidecars as a side effect of replaying the ingest commits, at exactly
// the ingest-policy coverage. (Coverage added later by Compact is the
// one thing a crash loses — a speed cost repaid by re-running Compact.)
// The sidecar field is likewise exempt from the commit-path-only
// mutation rule: Compact and the corruption fault hooks may replace it,
// under the writers' mutex, without a commit — an atomic store, because
// reads load it without a lock.
const (
	sidecarMinBytes       = 4 << 10
	sidecarAppendMinBytes = 64 << 10
	// sidecarExtentBytes is the capacity of one extent. Half of it, on
	// average, is the only memory an appended file holds beyond its
	// sidecar bytes, and a version lists one piece per extent.
	sidecarExtentBytes = 256 << 10
)

// sidecar is one file version's view of its columnar sidecar. The
// byte layout is colseg's, unchanged — SidecarStat, ViewSidecarAt and
// ReadSidecarAt serve the concatenation of pieces — but the bytes are
// not held contiguously: a view a Build or an append produced is
//
//	pieces[0]      the 25-byte header
//	pieces[1:n-1]  runs of chunk payloads
//	pieces[n-1]    the footer
//
// and an append shares every run with its predecessor, adding only a
// new header, the new segment's chunk bytes and a new footer. A view is
// immutable once a version holds it (the fault hooks and Compact
// replace the live version's view, they never edit one), so a snapshot
// keeps reading exactly the bytes of the version it holds.
//
// That immutability is also what lets ViewSidecarAt hand a reader a
// sub-slice of a piece instead of a copy, and lets the reader — who
// holds no lock — keep it for as long as it likes: nothing ever
// writes to a byte a piece covers — an append writes behind the last
// piece, in capacity no piece's slice reaches — and a version that is
// replaced or dropped only stops referring to its pieces. The holder's
// side of the contract is to treat the bytes as read-only, and to know
// that it keeps the whole run or extent alive while it holds them.
//
// New chunk bytes are packed into fixed-size append-only extents so a
// 50 KB run costs 50 KB, not a page-rounded allocation of its own. A
// view sees a prefix of its last extent. Tip ownership: only a view
// that sees every byte used in that extent may have its successor
// written behind it in place — nothing another version can read is
// touched. A view that sees less (a fork: its piece was cut by
// TruncateSidecar), whose last run is not an extent (a Build output, a
// CorruptSidecarByte copy), or whose extent is full, starts a new one.
type sidecar struct {
	pieces []sidecarPiece
}

// size is the sidecar's length in bytes.
func (v *sidecar) size() int64 {
	if len(v.pieces) == 0 {
		return 0
	}
	last := v.pieces[len(v.pieces)-1]
	return last.off + int64(len(last.b))
}

// sidecarPiece is b at sidecar offset off; ext is the extent b is a
// prefix of, nil for a slice nothing may be written behind.
type sidecarPiece struct {
	off int64
	b   []byte
	ext *sidecarExtent
}

// sidecarExtent is an append-only buffer of chunk bytes shared by
// successive versions: len(buf) bytes are in use, the capacity never
// changes, and bytes once written never do.
type sidecarExtent struct {
	buf []byte
}

// newSidecar wraps the bytes of one whole sidecar, cut at colseg's
// section boundaries when they can be found so that an append can
// share the chunk region.
func newSidecar(sc []byte) *sidecar {
	sections := [][]byte{sc}
	if header, chunks, footer, err := colseg.Split(sc); err == nil {
		sections = [][]byte{header, chunks, footer}
	}
	v := &sidecar{}
	off := int64(0)
	for _, b := range sections {
		v.pieces = append(v.pieces, sidecarPiece{off: off, b: b[:len(b):len(b)]})
		off += int64(len(b))
	}
	return v
}

// pieceAt returns the index of the piece holding sidecar offset off,
// len(v.pieces) when off is at or past the end.
func (v *sidecar) pieceAt(off int64) int {
	return sort.Search(len(v.pieces), func(i int) bool {
		return v.pieces[i].off+int64(len(v.pieces[i].b)) > off
	})
}

// readAt copies the view's bytes from off into p, like io.ReaderAt
// without the EOF error.
func (v *sidecar) readAt(off int64, p []byte) int {
	n := 0
	for i := v.pieceAt(off); i < len(v.pieces) && n < len(p); i++ {
		pc := v.pieces[i]
		n += copy(p[n:], pc.b[off+int64(n)-pc.off:])
	}
	return n
}

// view returns the up to size bytes at off without copying them when
// one piece holds them all — capacity clipped, so nothing can be
// appended behind them — and as a fresh buffer of exactly that many
// bytes when they straddle pieces (an appended file's chunk cut by an
// extent boundary).
func (v *sidecar) view(off, size int64) []byte {
	size = min(size, v.size()-off)
	if size <= 0 {
		return nil
	}
	pc := v.pieces[v.pieceAt(off)]
	if lo := off - pc.off; lo+size <= int64(len(pc.b)) {
		return pc.b[lo : lo+size : lo+size]
	}
	buf := make([]byte, size)
	v.readAt(off, buf)
	return buf
}

// bytes returns the whole sidecar as one fresh slice.
func (v *sidecar) bytes() []byte {
	buf := make([]byte, v.size())
	v.readAt(0, buf)
	return buf
}

// prefix returns the view of the first n bytes. It shares every piece,
// cutting the last.
func (v *sidecar) prefix(n int64) *sidecar {
	out := &sidecar{}
	for _, pc := range v.pieces {
		if pc.off >= n {
			break
		}
		if end := n - pc.off; end < int64(len(pc.b)) {
			pc.b = pc.b[:end:end]
		}
		out.pieces = append(out.pieces, pc)
	}
	return out
}

// flipped returns the view with the byte at off inverted, in a private
// copy of the one piece that holds it.
func (v *sidecar) flipped(off int64) *sidecar {
	out := &sidecar{pieces: slices.Clone(v.pieces)}
	pc := &out.pieces[v.pieceAt(off)]
	pc.b, pc.ext = bytes.Clone(pc.b), nil
	pc.b[off-pc.off] ^= 0xFF
	return out
}

// extended returns the successor view an append produces: v's chunk
// runs shared, t's header and footer in place of v's, and t's chunk
// bytes where v's footer began — written behind the last run in place
// while the view owns a tip extent with room, in new extents otherwise.
func (v *sidecar) extended(t colseg.Tail) *sidecar {
	last := len(v.pieces) - 1
	off := v.pieces[last].off
	pieces := make([]sidecarPiece, 0, len(v.pieces)+1+len(t.Chunks)/sidecarExtentBytes)
	pieces = append(pieces, sidecarPiece{b: t.Header})
	pieces = append(pieces, v.pieces[1:last]...)
	for chunks := t.Chunks; len(chunks) > 0; {
		tip := &pieces[len(pieces)-1]
		if tip.ext == nil || len(tip.b) != len(tip.ext.buf) || len(tip.b) == cap(tip.ext.buf) {
			ext := &sidecarExtent{buf: make([]byte, 0, sidecarExtentBytes)}
			pieces = append(pieces, sidecarPiece{off: off, ext: ext})
			continue
		}
		ext := tip.ext
		n := min(cap(ext.buf)-len(ext.buf), len(chunks))
		ext.buf = append(ext.buf, chunks[:n]...)
		tip.b = ext.buf[:len(ext.buf):len(ext.buf)]
		off += int64(n)
		chunks = chunks[n:]
	}
	return &sidecar{pieces: append(pieces, sidecarPiece{off: off, b: t.Footer})}
}

// sniffFormat guesses a file's record shape from its first line; the
// full Build pass then validates every record against the guess.
func sniffFormat(data []byte) colscan.Format {
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	if bytes.IndexByte(line, '\t') >= 0 {
		return colscan.FormatKV
	}
	return colscan.FormatNumeric
}

// buildSidecar encodes a fresh file state's sidecar, or returns nil
// when the gates say no. Encode failures are silent: the file simply
// stays text-only.
func (fs *FileSystem) buildSidecar(meta *fileMeta, data []byte) *sidecar {
	if fs.cfg.DisableSidecars || int64(len(data)) < sidecarMinBytes {
		return nil
	}
	sc, err := colseg.Build(sniffFormat(data), meta.version, data, meta.segments, fs.cfg.BlockSize)
	if err != nil {
		return nil
	}
	fs.metrics.Charge(simcost.Snapshot{BytesWritten: int64(len(sc))})
	return newSidecar(sc)
}

// extendSidecar returns the successor state's sidecar for one appended
// segment. Extension requires an existing sidecar whose coverage ends
// at a segment start; anything else (small initial write, a sidecar the
// fault hooks damaged) keeps the old view and leaves full coverage for
// Compact. Segments earlier sub-threshold appends left uncovered are
// extended over first, their bytes read back from the blocks, so one
// small append costs coverage only until the next large one. Only the
// header, the new segments' chunks and the footer are encoded and
// written: colseg.ExtendTail sees nothing else of the old sidecar and
// the successor shares the pre-append chunk runs (see sidecar), so the
// cost is the uncovered bytes plus one footer entry per chunk whatever
// the file's size.
func (fs *FileSystem) extendSidecar(prev *sidecar, meta *fileMeta, segData []byte, segStart int64) *sidecar {
	if fs.cfg.DisableSidecars || int64(len(segData)) < sidecarAppendMinBytes || prev == nil || len(prev.pieces) < 2 {
		return prev
	}
	cover, err := colseg.Cover(prev.pieces[0].b)
	if err != nil {
		return prev
	}
	// The uncovered bytes [cover, segStart): every block lies inside one
	// segment, so they are the payloads of the blocks starting there.
	var gap []byte
	if cover < segStart {
		gap = make([]byte, 0, segStart-cover)
		for _, blk := range meta.blocks {
			if blk.offset >= cover && blk.offset < segStart {
				gap = append(gap, blk.payload...)
			}
		}
		fs.metrics.Charge(simcost.Snapshot{DiskSeeks: 1, BytesRead: int64(len(gap))})
	}
	// Encode every Tail before writing any, so a segment the validators
	// reject leaves no bytes behind in the tip extent.
	header, footer := prev.pieces[0].b, prev.pieces[len(prev.pieces)-1]
	var tails []colseg.Tail
	last := len(meta.segments) - 1
	for i, start := range meta.segments {
		if start < cover {
			continue
		}
		data := segData
		if i < last {
			data = gap[start-cover : meta.segments[i+1]-cover]
		}
		tail, err := colseg.ExtendTail(header, footer.b, footer.off, meta.version, data, start, fs.cfg.BlockSize)
		if err != nil {
			return prev
		}
		tails = append(tails, tail)
		header, footer = tail.Header, sidecarPiece{off: footer.off + int64(len(tail.Chunks)), b: tail.Footer}
	}
	ext := prev
	for _, tail := range tails {
		ext = ext.extended(tail)
	}
	fs.metrics.Charge(simcost.Snapshot{BytesWritten: ext.size() - prev.size()})
	return ext
}

// SidecarStat reports the size of path's columnar sidecar, false when
// the path has none. It implements half of colseg.Store.
func (s state) SidecarStat(path string) (int64, bool) {
	sc, err := s.sidecar(path, 0)
	if err != nil {
		return 0, false
	}
	return sc.size(), true
}

func (fs *FileSystem) SidecarStat(path string) (int64, bool) { return fs.live().SidecarStat(path) }

// ViewSidecarAt returns the up to size bytes of path's sidecar at off —
// fewer only where the sidecar ends — charging one disk seek and the
// bytes like any positioned read. The result is read-only and usually
// aliases stored bytes (see sidecar for why that is safe to hold); it
// is a private copy only when the range straddles two pieces. It
// implements the other half of colseg.Store.
func (s state) ViewSidecarAt(path string, off, size int64) ([]byte, error) {
	sc, err := s.sidecar(path, off)
	if err != nil || off >= sc.size() {
		return nil, err
	}
	b := sc.view(off, size)
	s.ledger.Charge(simcost.Snapshot{DiskSeeks: 1, BytesRead: int64(len(b))})
	return b, nil
}

func (fs *FileSystem) ViewSidecarAt(path string, off, size int64) ([]byte, error) {
	return fs.live().ViewSidecarAt(path, off, size)
}

// ReadSidecarAt is the copying form of ViewSidecarAt, for a caller that
// owns the destination: it fills p from path's sidecar starting at off,
// with the same charge. n < len(p) with a nil error means the sidecar
// ended.
func (s state) ReadSidecarAt(path string, off int64, p []byte) (int, error) {
	sc, err := s.sidecar(path, off)
	if err != nil || off >= sc.size() {
		return 0, err
	}
	n := sc.readAt(off, p)
	s.ledger.Charge(simcost.Snapshot{DiskSeeks: 1, BytesRead: int64(n)})
	return n, nil
}

func (fs *FileSystem) ReadSidecarAt(path string, off int64, p []byte) (int, error) {
	return fs.live().ReadSidecarAt(path, off, p)
}

// sidecar resolves the sidecar a positioned read at off addresses: the
// view the file state holds right now, immutable from here on.
func (s state) sidecar(path string, off int64) (*sidecar, error) {
	var sc *sidecar
	if meta := s.ns.files[path]; meta != nil {
		sc = meta.sidecar.Load()
	}
	if sc == nil {
		return nil, fmt.Errorf("%w: sidecar for %s", ErrNotFound, path)
	}
	if off < 0 {
		return nil, errors.New("dfs: negative offset")
	}
	return sc, nil
}

// CompactStats reports what Compact found and did.
type CompactStats struct {
	Path         string
	Rebuilt      bool  // false: existing sidecar already had full coverage
	Chunks       int   // chunks in the (resulting) sidecar
	SidecarBytes int64 // sidecar size
	CoveredBytes int64 // data bytes the sidecar covers
}

// Compact rebuilds path's columnar sidecar to full coverage: it
// backfills files ingested without one (pre-sidecar files, small
// writes, DisableSidecars ingest) and re-encodes the uncovered tail
// left behind by sub-threshold appends. The data file itself is not
// touched — splits, versions and cached blocks all stay valid, and no
// commit is journaled (the sidecar is derived state; see the package
// policy above). Reading the file back for the rebuild is charged as
// one sequential scan.
//
// A file whose records the columnar validators reject returns the
// validation error (wrapping colscan.ErrBadRecord) and keeps no
// sidecar; an empty file is a no-op.
func (fs *FileSystem) Compact(path string) (CompactStats, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, err := fs.live().file(path)
	if err != nil {
		return CompactStats{}, err
	}
	st := CompactStats{Path: path}
	if meta.size == 0 {
		return st, nil
	}
	if sc := meta.sidecar.Load(); sc != nil {
		if info, err := colseg.Inspect(sc.bytes()); err == nil &&
			info.Version == meta.version && info.Cover == meta.size {
			st.Chunks = info.Chunks
			st.SidecarBytes = sc.size()
			st.CoveredBytes = info.Cover
			return st, nil
		}
	}
	data := make([]byte, 0, meta.size)
	for _, blk := range meta.blocks {
		payload, err := fs.replicaPayload(blk)
		if err != nil {
			return st, err
		}
		data = append(data, payload...)
	}
	fs.metrics.Charge(simcost.Snapshot{DiskSeeks: 1, BytesRead: int64(len(data))})
	sc, err := colseg.Build(sniffFormat(data), meta.version, data, meta.segments, fs.cfg.BlockSize)
	if err != nil {
		return st, fmt.Errorf("dfs: compact %s: %w", path, err)
	}
	meta.sidecar.Store(newSidecar(sc))
	fs.metrics.Charge(simcost.Snapshot{BytesWritten: int64(len(sc))})
	info, err := colseg.Inspect(sc)
	if err != nil {
		return st, err
	}
	st.Rebuilt = true
	st.Chunks = info.Chunks
	st.SidecarBytes = int64(len(sc))
	st.CoveredBytes = info.Cover
	return st, nil
}

// CorruptSidecarByte flips one byte of path's live sidecar and reports
// whether a sidecar existed — fault injection for the corrupted-sidecar
// fallback path, next to KillDataNode in spirit: verification must
// catch the damage and reads must fall back to text decode.
func (fs *FileSystem) CorruptSidecarByte(path string, off int64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sc, meta := fs.liveSidecar(path)
	if sc == nil || off < 0 || off >= sc.size() {
		return false
	}
	// Copy-on-write: older versions share the piece that holds off.
	meta.sidecar.Store(sc.flipped(off))
	return true
}

// TruncateSidecar cuts path's live sidecar to n bytes (fault injection
// for the truncated-footer fallback path). Reports whether a sidecar
// existed and was at least n bytes long.
func (fs *FileSystem) TruncateSidecar(path string, n int64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sc, meta := fs.liveSidecar(path)
	if sc == nil || n < 0 || n > sc.size() {
		return false
	}
	meta.sidecar.Store(sc.prefix(n))
	return true
}

// liveSidecar returns path's live sidecar and the file state holding
// it, nil when the path has none.
func (fs *FileSystem) liveSidecar(path string) (*sidecar, *fileMeta) {
	meta := fs.ns.Load().files[path]
	if meta == nil {
		return nil, nil
	}
	return meta.sidecar.Load(), meta
}
