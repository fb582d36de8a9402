// Package journal is the dfs commit log: an append-only sequence of
// CRC-verified records, one per namespace mutation (WriteFile, Append,
// Delete), that makes ingest crash-safe and replayable. It borrows the
// colseg framing idiom — magic-bracketed little-endian sections, each
// payload covered by a CRC-32C (Castagnoli, hardware-accelerated) — but
// where a sidecar is derived state the journal is the opposite: it IS
// the durable truth, and the in-memory namespace is what replaying it
// reconstructs.
//
// # Layout
//
// A journal is a header followed by zero or more records:
//
//	header  (8 bytes)
//	  magic    8  "EARLJNL1"
//	record* (framed, variable length)
//	  seq      8  int64 LE, 1-based, strictly sequential
//	  op       1  Op (1 write, 2 append, 3 delete)
//	  pathLen  4  uint32 LE
//	  dataLen  8  int64 LE
//	  path     pathLen bytes
//	  data     dataLen bytes
//	  crc      4  uint32 LE CRC-32C over seq..data
//
// # Torn tails vs corruption
//
// A crash can tear exactly one record: the one being written when the
// power went. Replay therefore distinguishes two failure shapes:
//
//   - a *torn tail* — the final record is truncated mid-frame, or its
//     frame reaches exactly end-of-journal but the CRC fails. Replay
//     drops it, reports TornTail with the clean truncation point, and
//     the recovered state is the last fully committed prefix. Never an
//     error: this is the expected shape of a crash.
//   - *interior corruption* — a record fails its CRC (or carries an
//     out-of-sequence seq) with more journal bytes after it. No single
//     torn write produces that, so replay refuses with ErrCorrupt
//     rather than silently dropping committed history.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op identifies the namespace mutation a record carries.
type Op byte

// The journaled mutation kinds.
const (
	OpWrite  Op = 1 // WriteFile: replace path with data
	OpAppend Op = 2 // Append: extend path with data
	OpDelete Op = 3 // Delete: remove path (no data)
)

// String implements fmt.Stringer for log lines and test failures.
func (op Op) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpAppend:
		return "append"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", byte(op))
	}
}

const (
	magic = "EARLJNL1"
	// headerSize is the fixed prologue: just the magic.
	headerSize = 8
	// frameFixed is the fixed part of a record frame: seq, op, pathLen,
	// dataLen and the trailing CRC.
	frameFixed = 8 + 1 + 4 + 8 + 4
	// maxPathLen bounds the path field so a corrupt length cannot force
	// a huge allocation before the CRC gets a chance to reject it.
	maxPathLen = 1 << 16
)

// ErrCorrupt is the errors.Is-able sentinel for interior corruption —
// a record that fails verification with committed records after it.
// Torn tails are not errors; see Replay.
var ErrCorrupt = errors.New("journal: corrupt record")

// castagnoli is the CRC-32C table shared with colseg's framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed mutation.
type Record struct {
	Seq  int64 // 1-based, strictly sequential
	Op   Op
	Path string
	Data []byte // nil for OpDelete
}

// Log is an in-memory journal being written: the header followed by one
// exact-size frame per record, each allocated once and never written
// again. That is what lets Append hand the caller the stored copy of a
// record's data to keep (dfs cuts its block payloads out of it — an
// ingested byte is held once, and the log never regrows or copies what
// it already holds). The zero value is not ready; use New.
type Log struct {
	frames [][]byte
	size   int64 // header plus every frame, in bytes
	n      int64 // records appended
}

// New returns an empty journal (header only).
func New() *Log {
	return &Log{size: headerSize}
}

// Append frames one record under the next sequence number and returns
// the frame's data region — the journal's own copy of data, read-only
// and capacity-clipped. The caller's slice is not retained.
func (l *Log) Append(op Op, path string, data []byte) []byte {
	l.n++
	frame := make([]byte, frameFixed+len(path)+len(data))
	binary.LittleEndian.PutUint64(frame, uint64(l.n))
	frame[8] = byte(op)
	binary.LittleEndian.PutUint32(frame[9:], uint32(len(path)))
	binary.LittleEndian.PutUint64(frame[13:], uint64(len(data)))
	body := frameFixed - 4 + copy(frame[frameFixed-4:], path)
	end := body + copy(frame[body:], data)
	binary.LittleEndian.PutUint32(frame[end:], crc32.Checksum(frame[:end], castagnoli))
	l.frames = append(l.frames, frame)
	l.size += int64(len(frame))
	return frame[body:end:end]
}

// Records returns the number of records appended.
func (l *Log) Records() int64 { return l.n }

// Size returns the journal's size in bytes.
func (l *Log) Size() int64 { return l.size }

// Bytes returns the journal image as one fresh slice — the crash image
// a durable deployment would have on disk.
func (l *Log) Bytes() []byte {
	buf := make([]byte, 0, l.size)
	buf = append(buf, magic...)
	for _, frame := range l.frames {
		buf = append(buf, frame...)
	}
	return buf
}

// Tear truncates the journal mid-way through its final record, leaving
// drop bytes missing from the frame — the shape a crash during the last
// commit's write leaves behind. It reports whether a tear happened (a
// journal with no records, or drop outside (0, frameLen), is left
// untouched). The frame is cut by re-slicing, not by writing: whoever
// holds its data region still reads what was appended.
func (l *Log) Tear(drop int64) bool {
	if l.n == 0 {
		return false
	}
	last := len(l.frames) - 1
	frameLen := int64(len(l.frames[last]))
	if drop <= 0 || drop >= frameLen {
		return false
	}
	l.frames[last] = l.frames[last][:frameLen-drop]
	l.size -= drop
	l.n-- // the torn record was never committed
	return true
}

// parseRecord decodes the record whose frame starts at pos. It returns
// the offset just past the frame. Errors distinguish nothing — the
// caller (Replay) decides torn-tail vs corruption from the position.
func parseRecord(buf []byte, pos int64) (next int64, rec Record, err error) {
	if pos+frameFixed-4 > int64(len(buf)) {
		return 0, Record{}, errors.New("truncated frame header")
	}
	rec.Seq = int64(binary.LittleEndian.Uint64(buf[pos:]))
	rec.Op = Op(buf[pos+8])
	pathLen := int64(binary.LittleEndian.Uint32(buf[pos+9:]))
	dataLen := int64(binary.LittleEndian.Uint64(buf[pos+13:]))
	if pathLen > maxPathLen || dataLen < 0 || dataLen > int64(len(buf)) {
		return 0, Record{}, errors.New("implausible frame lengths")
	}
	end := pos + frameFixed + pathLen + dataLen
	if end > int64(len(buf)) {
		return 0, Record{}, errors.New("truncated frame body")
	}
	body := pos + frameFixed - 4
	want := binary.LittleEndian.Uint32(buf[end-4:])
	if crc32.Checksum(buf[pos:end-4], castagnoli) != want {
		return 0, Record{}, errors.New("crc mismatch")
	}
	if rec.Op != OpWrite && rec.Op != OpAppend && rec.Op != OpDelete {
		return 0, Record{}, fmt.Errorf("unknown op %d", byte(rec.Op))
	}
	rec.Path = string(buf[body : body+pathLen])
	if dataLen > 0 {
		rec.Data = append([]byte(nil), buf[body+pathLen:body+pathLen+dataLen]...)
	}
	return end, rec, nil
}

// ReplayStats reports what Replay found.
type ReplayStats struct {
	Records     int64 // fully committed records replayed
	Bytes       int64 // clean journal bytes (through the last good record)
	TornTail    bool  // a torn final record was detected and dropped
	DroppedTail int64 // bytes dropped past the clean truncation point
}

// Replay decodes every committed record of a journal image. A torn
// final record is dropped and reported in stats (never an error);
// interior corruption, out-of-sequence records, or a bad header return
// an error wrapping ErrCorrupt.
func Replay(buf []byte) ([]Record, ReplayStats, error) {
	var st ReplayStats
	if len(buf) < headerSize || string(buf[:headerSize]) != magic {
		return nil, st, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	var recs []Record
	pos := int64(headerSize)
	for pos < int64(len(buf)) {
		next, rec, err := parseRecord(buf, pos)
		if err == nil && rec.Seq != int64(len(recs))+1 {
			err = fmt.Errorf("seq %d, want %d", rec.Seq, len(recs)+1)
		}
		if err != nil {
			// A failed record with nothing after it is the torn tail a
			// crash leaves; a failed record with committed bytes after
			// it is interior corruption. "Nothing after it" means the
			// frame (as far as it can be trusted) reaches end-of-buffer
			// — which is every parse failure, since a frame that ends
			// early fails its CRC only from flipped bits, and flipped
			// length fields make the frame end elsewhere than the next
			// record's start, failing that parse too. The practical
			// rule: the tail is torn iff no subsequent position parses
			// as the expected next record.
			if !resyncs(buf, pos, int64(len(recs))+1) {
				st.TornTail = true
				st.DroppedTail = int64(len(buf)) - pos
				break
			}
			return nil, st, fmt.Errorf("%w: record %d at byte %d: %v",
				ErrCorrupt, len(recs)+1, pos, err)
		}
		recs = append(recs, rec)
		pos = next
	}
	st.Records = int64(len(recs))
	st.Bytes = int64(len(buf)) - st.DroppedTail
	return recs, st, nil
}

// resyncs reports whether any later position in buf parses as a valid
// record with sequence seq or seq+1 — evidence that committed records
// follow the failure, making it interior corruption rather than a torn
// tail. A torn tail cannot resync: everything after the tear is the
// single half-written frame.
func resyncs(buf []byte, from, seq int64) bool {
	for pos := from + 1; pos < int64(len(buf)); pos++ {
		if _, rec, err := parseRecord(buf, pos); err == nil &&
			(rec.Seq == seq || rec.Seq == seq+1) {
			return true
		}
	}
	return false
}

// PrefixRecords returns a copy of the journal image truncated to its
// first k committed records — the crash image "power failed right after
// commit k was durable". It does not validate CRCs; a malformed frame
// ends the walk early.
func PrefixRecords(buf []byte, k int64) []byte {
	pos := int64(headerSize)
	if pos > int64(len(buf)) {
		pos = int64(len(buf))
	}
	for i := int64(0); i < k; i++ {
		next, _, err := parseRecord(buf, pos)
		if err != nil {
			break
		}
		pos = next
	}
	return append([]byte(nil), buf[:pos]...)
}

// CountRecords returns the number of well-formed committed records in a
// journal image (torn tails excluded), or 0 on a bad header.
func CountRecords(buf []byte) int64 {
	recs, _, err := Replay(buf)
	if err != nil {
		return 0
	}
	return int64(len(recs))
}
