// Package colseg is the persistent columnar segment format: a compact
// binary sidecar per dfs file that stores each split's decoded columns
// — record-start offsets, raw little-endian float64 values and, for the
// grouped route, an interned key dictionary — so a cold read loads a
// colscan block with one converting, validating pass per column over
// the stored bytes instead of re-parsing row-oriented text. It is the
// zst side of the zng/zst row/column split (see SNIPPETS.md §1–2): the
// text file stays the durable row store and source of truth, the
// sidecar is a derived columnar cache that dfs builds at ingest and can
// always drop or rebuild.
//
// # Layout
//
// A sidecar is header, chunk payloads, footer:
//
//	header  (25 bytes)
//	  magic    8  "EARLCSG1"
//	  format   1  colscan.Format (1 numeric, 2 key\tvalue)
//	  version  8  int64 LE: the data file's write generation
//	  cover    8  int64 LE: data bytes the chunks tile, [0, cover)
//	chunk*  (one per split of the covered data, in file order)
//	  n        4  uint32 LE record count
//	  lastEnd  8  int64 LE: one past the last record's content
//	              (0 when the chunk holds no record starts)
//	  starts   n × uint32 LE, delta from the split offset
//	  vals     n × float64 LE bits
//	  — FormatKV only —
//	  keys     n × uint32 LE dictionary indices
//	  nDict    4  uint32 LE
//	  dict     nDict × (uint32 LE length + bytes)
//	footer
//	  entry*  36 bytes each: split offset 8, split length 8,
//	          payload pos 8, payload size 8, CRC-32C 4
//	  count    4  uint32 LE
//	  magic    8  "EARLCSGF"
//
// Chunks are keyed by the exact (offset, length) geometry dfs.Splits
// emits at the default split size, tiled per append segment, so the
// decoded-block cache can ask for a split and get a byte-range hit or a
// clean miss. Every payload is covered by a CRC-32C (Castagnoli,
// hardware-accelerated); any header, footer or checksum violation
// surfaces as ErrCorrupt and the reader falls back to text decode —
// a damaged sidecar can cost speed, never correctness.
//
// # Appends
//
// An append changes three things in a sidecar and nothing else: the
// header's cover field, the new segment's chunk payloads — written
// where the old footer began — and the footer. ExtendTail encodes
// exactly those (a Tail) from the old header and footer alone, so an
// append costs the batch plus one footer entry per chunk, whatever the
// file's size; Build, ExtendTail and Extend share one chunk and footer
// encoder. The format is the byte sequence, not its container: dfs
// holds each file version's sidecar as a header, runs of chunk payloads
// shared with the versions before it, and a footer, and serves their
// concatenation through Store; Extend is the same splice for a caller
// that holds one contiguous slice.
//
// Values are parsed at encode time with the same colscan validation the
// text decoder uses (NaN/±Inf rejected, identical rounding), so a
// sidecar-backed block is bit-identical to the text-decoded block for
// the same split. A file with any unparseable record gets no sidecar at
// all: the text path stays the single authority on decode errors.
package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/colscan"
)

// Magic strings bracket every sidecar; the trailing magic lets Split
// find the footer without trusting interior lengths.
const (
	headMagic = "EARLCSG1"
	tailMagic = "EARLCSGF"
)

// Fixed section sizes.
const (
	headerSize = 8 + 1 + 8 + 8 // magic, format, version, cover
	entrySize  = 8 + 8 + 8 + 8 + 4
	tailSize   = 4 + 8 // count, magic
)

// ErrCorrupt is the errors.Is-able sentinel wrapped by every structural
// failure — bad magic, truncated footer, CRC mismatch, inconsistent
// columns. Readers treat it as "sidecar unusable, decode the text";
// the scan cache counts and logs it, never propagates it as an answer.
var ErrCorrupt = errors.New("colseg: corrupt sidecar")

// castagnoli is the CRC-32C table shared by encode and verify; the
// Castagnoli polynomial has hardware support on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C covering one chunk payload.
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// header is the parsed fixed-size sidecar prologue.
type header struct {
	format  colscan.Format
	version int64
	cover   int64
}

// entry is one footer index record: which split a chunk payload covers
// and where the payload lives in the sidecar.
type entry struct {
	offset int64 // split offset in the data file
	length int64 // split length in the data file
	pos    int64 // payload offset in the sidecar
	size   int64 // payload size in bytes
	crc    uint32
}

func appendHeader(dst []byte, h header) []byte {
	dst = append(dst, headMagic...)
	dst = append(dst, byte(h.format))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.version))
	return binary.LittleEndian.AppendUint64(dst, uint64(h.cover))
}

func parseHeader(b []byte) (header, error) {
	if len(b) < headerSize || string(b[:8]) != headMagic {
		return header{}, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	h := header{
		format:  colscan.Format(b[8]),
		version: int64(binary.LittleEndian.Uint64(b[9:])),
		cover:   int64(binary.LittleEndian.Uint64(b[17:])),
	}
	if h.format != colscan.FormatNumeric && h.format != colscan.FormatKV {
		return header{}, fmt.Errorf("%w: unknown format %d", ErrCorrupt, h.format)
	}
	if h.cover < 0 {
		return header{}, fmt.Errorf("%w: negative cover", ErrCorrupt)
	}
	return h, nil
}

func appendFooter(dst []byte, entries []entry) []byte {
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.offset))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.length))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.pos))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.size))
		dst = binary.LittleEndian.AppendUint32(dst, e.crc)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(entries)))
	return append(dst, tailMagic...)
}

// parseTail reads the trailing count+magic of a sidecar of sidecarSize
// bytes and returns the entry count and the footer's start offset.
func parseTail(tail []byte, sidecarSize int64) (count int, footerStart int64, err error) {
	if len(tail) != tailSize || string(tail[4:]) != tailMagic {
		return 0, 0, fmt.Errorf("%w: bad trailer", ErrCorrupt)
	}
	count = int(binary.LittleEndian.Uint32(tail))
	footerStart = sidecarSize - tailSize - int64(count)*entrySize
	if footerStart < headerSize {
		return 0, 0, fmt.Errorf("%w: footer larger than sidecar", ErrCorrupt)
	}
	return count, footerStart, nil
}

// parseEntries decodes count footer entries, validating that every
// payload lies between the header and the footer.
func parseEntries(b []byte, count int, footerStart int64) ([]entry, error) {
	if int64(len(b)) != int64(count)*entrySize {
		return nil, fmt.Errorf("%w: footer truncated", ErrCorrupt)
	}
	entries := make([]entry, count)
	for i := range entries {
		o := i * entrySize
		e := entry{
			offset: int64(binary.LittleEndian.Uint64(b[o:])),
			length: int64(binary.LittleEndian.Uint64(b[o+8:])),
			pos:    int64(binary.LittleEndian.Uint64(b[o+16:])),
			size:   int64(binary.LittleEndian.Uint64(b[o+24:])),
			crc:    binary.LittleEndian.Uint32(b[o+32:]),
		}
		if e.offset < 0 || e.length < 0 || e.size < 0 ||
			e.pos < headerSize || e.pos+e.size > footerStart {
			return nil, fmt.Errorf("%w: entry %d out of bounds", ErrCorrupt, i)
		}
		entries[i] = e
	}
	return entries, nil
}

// Info summarizes a sidecar for compaction decisions and CLI reporting.
type Info struct {
	Format  colscan.Format
	Version int64 // data file write generation the sidecar was built for
	Cover   int64 // data bytes tiled by chunks, [0, Cover)
	Chunks  int
}

// Inspect parses and fully verifies a whole in-memory sidecar: header,
// footer, and every chunk payload's CRC. Compaction uses it to decide
// whether an existing sidecar is trustworthy — any damage, including a
// payload bit flip the index alone would not see, forces a rebuild.
func Inspect(sidecar []byte) (Info, error) {
	h, err := parseHeader(sidecar)
	if err != nil {
		return Info{}, err
	}
	if len(sidecar) < headerSize+tailSize {
		return Info{}, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	count, footerStart, err := parseTail(sidecar[len(sidecar)-tailSize:], int64(len(sidecar)))
	if err != nil {
		return Info{}, err
	}
	entries, err := parseEntries(sidecar[footerStart:int64(len(sidecar))-tailSize], count, footerStart)
	if err != nil {
		return Info{}, err
	}
	for i, e := range entries {
		if crc := checksum(sidecar[e.pos : e.pos+e.size]); crc != e.crc {
			return Info{}, fmt.Errorf("%w: chunk %d checksum %08x != %08x", ErrCorrupt, i, crc, e.crc)
		}
	}
	return Info{Format: h.format, Version: h.version, Cover: h.cover, Chunks: count}, nil
}
