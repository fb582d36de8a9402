package dfs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"repro/internal/simcost"
)

// Split is a logical input split: a byte range of a file handed to one
// map task. Splits usually coincide with blocks but, as in Hadoop, a
// block "can be further subdivided into input splits" (§3.3), so the
// split size is independent of the block size.
type Split struct {
	Path   string
	Index  int
	Offset int64
	Length int64
}

// End returns the first byte offset past the split.
func (s Split) End() int64 { return s.Offset + s.Length }

// String implements fmt.Stringer for log lines.
func (s Split) String() string {
	return fmt.Sprintf("%s[%d: %d+%d]", s.Path, s.Index, s.Offset, s.Length)
}

// Splits partitions the file at path into logical splits of at most
// splitSize bytes (the file's block size when splitSize <= 0). Each
// append segment is partitioned independently — a split never straddles
// a segment boundary — so the splits covering already-ingested data are
// byte-for-byte identical after any number of Appends, and the appended
// region is covered entirely by new splits.
func (s state) Splits(path string, splitSize int64) ([]Split, error) {
	meta, err := s.file(path)
	if err != nil {
		return nil, err
	}
	size, segments := meta.size, meta.segments
	if splitSize <= 0 {
		splitSize = s.fs.cfg.BlockSize
	}
	if size == 0 {
		return []Split{{Path: path, Index: 0, Offset: 0, Length: 0}}, nil
	}
	var out []Split
	for si, segStart := range segments {
		segEnd := size
		if si+1 < len(segments) {
			segEnd = segments[si+1]
		}
		for off := segStart; off < segEnd; off += splitSize {
			l := splitSize
			if off+l > segEnd {
				l = segEnd - off
			}
			out = append(out, Split{Path: path, Index: len(out), Offset: off, Length: l})
		}
	}
	return out, nil
}

func (fs *FileSystem) Splits(path string, splitSize int64) ([]Split, error) {
	return fs.live().Splits(path, splitSize)
}

// LineReader iterates the records of one split with Hadoop's
// LineRecordReader semantics:
//
//   - if the split starts at offset > 0, the (possibly partial) line in
//     progress at the start position is skipped — it belongs to the
//     previous split;
//   - lines that *begin* inside the split are fully consumed even when
//     they end beyond the split boundary.
//
// Together these rules give every line exactly one owner, which is what
// makes per-split sampling uniform over records. The reader pulls data
// in buffered chunks, each charged as a positioned read, from the one
// file state it resolved when it was opened: a rewrite or a delete that
// lands while it iterates does not reach it.
type LineReader struct {
	st      state     // the view the reader reads and charges through
	meta    *fileMeta // the committed state the reader was opened on
	split   Split
	fileLen int64
	pos     int64 // next byte offset to fetch from the file
	bufOff  int64 // file offset of window[0]
	window  []byte
	started bool
	err     error
	line    []byte
	lineOff int64 // file offset where the current line starts
	chunk   int
}

// lineChunk is a LineReader's default fill: 64 KiB, one positioned read.
const lineChunk = 64 << 10

// NewLineReader opens a reader over split. chunkSize controls the I/O
// granularity (lineChunk when <= 0).
func (s state) NewLineReader(split Split, chunkSize int) (*LineReader, error) {
	meta, err := s.file(split.Path)
	if err != nil {
		return nil, err
	}
	size := meta.size
	if split.Offset < 0 || split.Length < 0 || split.Offset > size {
		return nil, fmt.Errorf("dfs: split %v out of file bounds (size %d)", split, size)
	}
	if chunkSize <= 0 {
		chunkSize = lineChunk
	}
	return &LineReader{
		st:      s,
		meta:    meta,
		split:   split,
		fileLen: size,
		pos:     split.Offset,
		chunk:   chunkSize,
	}, nil
}

func (fs *FileSystem) NewLineReader(split Split, chunkSize int) (*LineReader, error) {
	return fs.live().NewLineReader(split, chunkSize)
}

// fill appends the next chunk of the file to the window.
func (r *LineReader) fill() error {
	if r.pos >= r.fileLen {
		return io.EOF
	}
	want := int64(r.chunk)
	if r.pos+want > r.fileLen {
		want = r.fileLen - r.pos
	}
	buf := make([]byte, want)
	n, err := r.st.readMeta(r.meta, r.pos, buf)
	if err != nil {
		return err
	}
	if n == 0 {
		return io.EOF
	}
	if len(r.window) == 0 {
		r.bufOff = r.pos
	}
	r.window = append(r.window, buf[:n]...)
	r.pos += int64(n)
	return nil
}

// Next advances to the next record. It returns false at the end of the
// split or on error; check Err afterwards.
func (r *LineReader) Next() bool {
	if r.err != nil {
		return false
	}
	if !r.started {
		r.started = true
		if r.split.Offset > 0 {
			// Skip the partial line owned by the previous split: discard
			// bytes through the first newline at or after Offset-1. We
			// back up one byte so that a split starting exactly at a line
			// start still skips correctly only when the previous byte is
			// not a newline (Hadoop reads from Offset and always skips
			// the first "line", having started the scan at Offset; the
			// equivalent single-owner rule is: the first record of this
			// split is the one starting after the first newline found at
			// position >= Offset-1).
			r.pos = r.split.Offset - 1
			r.window = nil
			if err := r.skipToNewline(); err != nil {
				if err != io.EOF {
					r.err = err
				}
				return false
			}
		}
	}
	// The current record must *start* strictly before split end.
	start := r.bufOff
	if start >= r.split.End() || start >= r.fileLen {
		return false
	}
	// Scan for the newline terminating this record, filling as needed.
	for {
		if i := bytes.IndexByte(r.window, '\n'); i >= 0 {
			r.line = r.window[:i]
			r.lineOff = r.bufOff
			r.window = r.window[i+1:]
			r.bufOff += int64(i + 1)
			return true
		}
		if err := r.fill(); err != nil {
			if err == io.EOF {
				// Final, newline-less record at EOF.
				if len(r.window) > 0 {
					r.line = r.window
					r.lineOff = r.bufOff
					r.bufOff += int64(len(r.window))
					r.window = nil
					return true
				}
				return false
			}
			r.err = err
			return false
		}
	}
}

// skipToNewline discards bytes until just past the next '\n'.
func (r *LineReader) skipToNewline() error {
	for {
		if len(r.window) == 0 {
			if err := r.fill(); err != nil {
				return err
			}
		}
		if i := bytes.IndexByte(r.window, '\n'); i >= 0 {
			r.window = r.window[i+1:]
			r.bufOff = r.bufOff + int64(i+1)
			return nil
		}
		r.bufOff += int64(len(r.window))
		r.window = nil
	}
}

// LineScanCost is what a default-chunk LineReader drained over sp in a
// file of size bytes charges — bytes read and seeks — without reading
// anything: its fills are contiguous lineChunk reads (one seek each, the
// last one clipped at EOF) from Offset−1 (0 for the first split) until
// the window holds through−1. through is one past the newline that ends
// the split's last owned record — or, for a split that owns none, the
// newline that ends the partial line it skips — and size when that
// record runs unterminated to EOF. A caller that already holds a split's
// decoded records charges their scan with it instead of re-reading them.
func LineScanCost(sp Split, size, through int64) (bytes, seeks int64) {
	from := max(sp.Offset-1, 0)
	if through <= from {
		return 0, 0
	}
	seeks = (through - from + lineChunk - 1) / lineChunk
	return min(seeks*lineChunk, size-from), seeks
}

// Text returns the current record without its trailing newline.
func (r *LineReader) Text() string { return string(r.line) }

// Bytes returns the current record's bytes; valid until the next call to
// Next.
func (r *LineReader) Bytes() []byte { return r.line }

// RecordOffset returns the file offset at which the current record starts.
// The pre-map sampler's bit-vector of already-sampled line starts is keyed
// on this.
func (r *LineReader) RecordOffset() int64 { return r.lineOff }

// Err returns the first error encountered (nil on clean end-of-split).
func (r *LineReader) Err() error { return r.err }

// ReadLineAt returns the full line containing file offset pos, applying
// the paper's backtracking rule (Algorithm 2): if pos is not the start of
// a line, back up to the previous newline. It returns the line, the
// offset at which it starts, and charges the underlying seeks. It is the
// one-position form of ReadLinesAt, with the record copied out.
func (s state) ReadLineAt(path string, pos int64, chunkSize int) (line string, lineStart int64, err error) {
	meta, err := s.file(path)
	if err != nil {
		return "", 0, err
	}
	var cost simcost.Snapshot
	rec, lineStart, err := s.lineAt(meta, pos, chunkSize, &cost)
	s.ledger.Charge(cost)
	return string(rec), lineStart, err
}

func (fs *FileSystem) ReadLineAt(path string, pos int64, chunkSize int) (string, int64, error) {
	return fs.live().ReadLineAt(path, pos, chunkSize)
}

// ReadLinesAt resolves the records containing positions, in order,
// against the one file state it resolves first, and hands each to fn:
// the pre-map sampler's unit of work, a whole extend's draws as one
// gather. Position i is charged, ticked and fault-checked exactly as
// ReadLineAt(path, positions[i], chunkSize) is — one seek and its
// window's bytes, a replica per window, the same growth — and its
// outcome, error included (io.EOF on an empty file, a read that found
// no replica), is fn's to judge. line is a read-only view, of stored
// bytes or of a window assembled across a block boundary, and is valid
// until fn returns. fn returning more == false, or an error (which
// ReadLinesAt returns), ends the walk: later positions are not read
// and not charged. The walk's reads reach the ledger — atomic counters
// every reader shares — as one charge when it ends, however it ends.
// (The replica tick stays per window: it picks where a fault lands.)
//
// What the batch buys is overlap: a drawn position is a cache miss, and
// one at a time each waits for the one before. Before resolving
// positions i … i+touchAhead−1 the walk touches their windows — plain
// loads from the bytes the file state already holds: no charge, no
// tick, no fault check, no replica choice — so those misses are in
// flight together by the time the real, ordered reads search them.
//
//earl:hotpath
func (s state) ReadLinesAt(path string, positions []int64, chunkSize int, fn func(i int, line []byte, lineStart int64, err error) (more bool, fail error)) error {
	meta, err := s.file(path)
	if err != nil {
		return err
	}
	var cost simcost.Snapshot
	defer func() { s.ledger.Charge(cost) }()
	for i, pos := range positions {
		if i%touchAhead == 0 {
			meta.touch(positions[i:min(i+touchAhead, len(positions))])
		}
		line, start, err := s.lineAt(meta, pos, chunkSize, &cost)
		more, err := fn(i, line, start, err)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

func (fs *FileSystem) ReadLinesAt(path string, positions []int64, chunkSize int, fn func(i int, line []byte, lineStart int64, err error) (more bool, fail error)) error {
	return fs.live().ReadLinesAt(path, positions, chunkSize, fn)
}

const (
	// touchAhead is how many positions ReadLinesAt touches before it
	// resolves the first of them: the misses a core keeps in flight.
	touchAhead = 16
	// touchBack and touchFwd are where, around a position, the touch
	// loads a byte: the cache lines the newline searches of a short
	// record start in, either way.
	touchBack = 24
	touchFwd  = 32
)

// touch loads a byte either side of each position from the file's own
// bytes, so the cache lines a record search starts in are on their way
// before the search runs. It is not a read: nothing is charged or
// chosen, and a position outside the file touches nothing.
func (m *fileMeta) touch(positions []int64) {
	var sink byte
	var blk *blockMeta
	for _, pos := range positions {
		if pos < 0 || pos >= m.size {
			continue
		}
		lo := max(pos-touchBack, 0)
		if blk == nil || lo < blk.offset || lo >= blk.offset+blk.size {
			blk = m.blocks[m.blockAt(lo)]
		}
		sink ^= blk.payload[lo-blk.offset]
		// The forward byte only where this block holds it: a window
		// that straddles blocks is rare and gets no second hint.
		if hi := pos + touchFwd - blk.offset; hi < blk.size {
			sink ^= blk.payload[hi]
		}
	}
	// The loads are the point; keeping their result live is what stops
	// the compiler from dropping them.
	runtime.KeepAlive(sink)
}

// lineAt resolves the record containing pos in one file state: one
// window around pos, grown geometrically until it contains both the
// preceding newline (or file start) and the terminating newline (or
// EOF). Short records resolve in a single positioned read — one seek, a
// few hundred bytes — which is what makes pre-map sampling a sub-scan
// operation. The returned line is a read-only view; the windows' seeks
// and bytes are added to tally.
func (s state) lineAt(meta *fileMeta, pos int64, chunkSize int, tally *simcost.Snapshot) (line []byte, lineStart int64, err error) {
	if chunkSize <= 0 {
		chunkSize = 256
	}
	back, fwd := int64(chunkSize), int64(chunkSize)
	for {
		line, lineStart, grow, err := s.lineInWindow(meta, pos, back, fwd, tally)
		switch grow {
		case growBack:
			back *= 4
		case growFwd:
			fwd *= 4
		default:
			return line, lineStart, err
		}
	}
}

// windowGrow says which side of a window must widen before the record
// around pos fits in it.
type windowGrow int

const (
	growNone windowGrow = iota
	growBack
	growFwd
)

// lineInWindow resolves the record containing pos within the window
// [pos−back, pos+fwd) of one file state: block search and newline
// search. A window that
// lies in one block — every window but those straddling a block
// boundary — is searched in the replica's bytes where they are; only a
// straddling window is assembled by the copying read. Either way the
// window is added to tally as one positioned read (a seek and its bytes) and
// each block reaches its replica through replicaPayload, so
// modelled cost, read ticks and injected faults do not depend on which
// way the bytes were reached.
func (s state) lineInWindow(meta *fileMeta, pos, back, fwd int64, tally *simcost.Snapshot) (line []byte, lineStart int64, grow windowGrow, err error) {
	size := meta.size
	if size == 0 {
		return nil, 0, growNone, io.EOF
	}
	pos = min(max(pos, 0), size-1)
	lo, hi := max(pos-back, 0), min(pos+fwd, size)
	var win []byte
	if blk := meta.blocks[meta.blockAt(lo)]; hi <= blk.offset+blk.size {
		payload, err := s.fs.replicaPayload(blk)
		tally.DiskSeeks++
		if err != nil {
			return nil, 0, growNone, err
		}
		tally.BytesRead += hi - lo
		win = payload[lo-blk.offset : hi-blk.offset]
	} else {
		win = make([]byte, hi-lo)
		if _, err := s.gatherMeta(meta, lo, win, tally); err != nil {
			return nil, 0, growNone, err
		}
	}
	// The record containing pos starts after the last '\n' strictly
	// before pos (a '\n' at pos belongs to the record it terminates).
	rel := pos - lo
	start := int64(0)
	if i := bytes.LastIndexByte(win[:rel], '\n'); i >= 0 {
		start = int64(i) + 1
	} else if lo > 0 {
		return nil, 0, growBack, nil
	}
	end := int64(len(win))
	if i := bytes.IndexByte(win[rel:], '\n'); i >= 0 {
		end = rel + int64(i)
	} else if hi < size {
		return nil, 0, growFwd, nil
	}
	return win[start:end:end], lo + start, growNone, nil
}
