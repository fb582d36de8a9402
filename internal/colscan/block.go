package colscan

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
)

// ReaderAt is the positioned-read surface the decoder needs; the dfs
// file system satisfies it structurally (no import edge).
type ReaderAt interface {
	ReadAt(path string, off int64, p []byte) (int, error)
}

// extendChunk is the forward-read granularity when a record continues
// past the split body (the Hadoop last-record rule) — one extra
// positioned read per 64 KiB, charged like any other read.
const extendChunk = 64 << 10

// Block is one split, decoded once: absolute record-start offsets, a
// parsed value column, and (for FormatKV) dictionary-interned keys. A
// Block is immutable after Decode and safe for concurrent readers —
// the cache hands the same Block to every watch on the file.
type Block struct {
	format Format
	starts []int64 // absolute file offset of each record's first byte
	// lastEnd is the offset one past the final record's last content
	// byte (its newline, if terminated, sits at lastEnd).
	lastEnd int64
	vals    []float64
	keys    []uint32 // dict indices, FormatKV only
	dict    []string // interned key strings, FormatKV only
}

// NumRecords returns the number of records decoded from the split.
func (b *Block) NumRecords() int { return len(b.starts) }

// Start returns the absolute file offset of record i.
func (b *Block) Start(i int) int64 { return b.starts[i] }

// Value returns record i's parsed value.
func (b *Block) Value(i int) float64 { return b.vals[i] }

// Key returns record i's group key ("" under FormatNumeric).
func (b *Block) Key(i int) string {
	if b.format != FormatKV {
		return ""
	}
	return b.dict[b.keys[i]]
}

// RecLen returns the content length (excluding the newline) of record i
// — what the sampler's bytes-per-record estimate charges.
func (b *Block) RecLen(i int) int {
	if i+1 < len(b.starts) {
		return int(b.starts[i+1] - b.starts[i] - 1)
	}
	return int(b.lastEnd - b.starts[i])
}

// SizeBytes estimates the block's retained memory for cache accounting.
func (b *Block) SizeBytes() int64 {
	n := int64(len(b.starts))*16 + int64(len(b.keys))*4
	for _, k := range b.dict {
		n += int64(len(k)) + 16
	}
	return n + 64
}

// Values returns the block's parsed value column. The slice is shared
// with the block and must be treated as read-only: blocks are handed to
// every concurrent watch on the file.
func (b *Block) Values() []float64 { return b.vals }

// KeyIDs returns the block's dictionary-coded key column: record i's
// key is Dict()[KeyIDs()[i]] (nil under FormatNumeric). Shared with the
// block and read-only, like Values.
func (b *Block) KeyIDs() []uint32 { return b.keys }

// Dict returns the block's key dictionary, in first-occurrence order
// (nil under FormatNumeric). Shared with the block and read-only.
func (b *Block) Dict() []string { return b.dict }

// AppendCols appends record i to out (value, plus key under FormatKV).
// The key string is shared with the block's dictionary — no allocation.
func (b *Block) AppendCols(out *Cols, i int) {
	out.Vals = append(out.Vals, b.vals[i])
	if b.format == FormatKV {
		out.Keys = append(out.Keys, b.dict[b.keys[i]])
	}
}

// AppendAll appends every record in the block to out, in file order.
func (b *Block) AppendAll(out *Cols) {
	out.Vals = append(out.Vals, b.vals...)
	if b.format == FormatKV {
		for _, ki := range b.keys {
			out.Keys = append(out.Keys, b.dict[ki])
		}
	}
}

// NewBlock builds a Block from pre-decoded columns — the entry point of
// the persistent columnar sidecar path (internal/colseg), where the
// columns were parsed and validated once at encode time and a cold read
// is a bounds-checked copy. The constructor re-checks every structural
// invariant Decode guarantees (column lengths agree, starts strictly
// ascending, dictionary indices in range, values finite), so a corrupt
// or hand-rolled sidecar can never smuggle a NaN or a misshapen block
// past the decode boundary. The slices are retained, not copied.
func NewBlock(f Format, starts []int64, lastEnd int64, vals []float64, keys []uint32, dict []string) (*Block, error) {
	if f != FormatNumeric && f != FormatKV {
		return nil, fmt.Errorf("colscan: no block format %d", f)
	}
	if len(vals) != len(starts) {
		return nil, fmt.Errorf("colscan: %d values for %d record starts", len(vals), len(starts))
	}
	for i, s := range starts {
		if s < 0 || (i > 0 && s <= starts[i-1]) {
			return nil, fmt.Errorf("colscan: record starts not ascending at %d", i)
		}
	}
	if n := len(starts); n > 0 && lastEnd < starts[n-1] {
		return nil, fmt.Errorf("colscan: lastEnd %d before final record start %d", lastEnd, starts[n-1])
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("colscan: non-finite value at record %d", i)
		}
	}
	if f == FormatKV {
		if len(keys) != len(vals) {
			return nil, fmt.Errorf("colscan: %d keys for %d values", len(keys), len(vals))
		}
		for i, ki := range keys {
			if int(ki) >= len(dict) {
				return nil, fmt.Errorf("colscan: key index %d out of dictionary (%d) at record %d", ki, len(dict), i)
			}
		}
	} else if len(keys) != 0 || len(dict) != 0 {
		return nil, fmt.Errorf("colscan: key columns on a numeric block")
	}
	return &Block{format: f, starts: starts, lastEnd: lastEnd, vals: vals, keys: keys, dict: dict}, nil
}

// FindRecord returns the index of the record containing absolute file
// offset pos — the largest i with Start(i) <= pos, mirroring the dfs
// ReadLineAt rule that a newline belongs to the record it terminates.
// It returns -1 when pos precedes the block's first record (the tail of
// a record owned by the previous split); the caller falls back to the
// seek path for that draw.
func (b *Block) FindRecord(pos int64) int {
	lo, hi := 0, len(b.starts) // invariant: starts[lo-1] <= pos < starts[hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.starts[mid] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Decode scans the split [off, off+length) of path and parses every
// record that STARTS inside it, with the exact split semantics of the
// dfs LineReader: a split not at offset 0 skips the partial first line
// (reading from off-1, so a record boundary exactly at off is kept),
// and the final record may extend past the split end — the decoder
// follows it to its newline (or EOF). fileSize bounds the scan; for
// appended files pass the size the split set was built against.
//
// The whole split body is fetched with ONE positioned read (one
// simulated disk seek), which is where the decoded-block path wins over
// per-record ReadLineAt seeks.
//
//earl:hotpath
func Decode(r ReaderAt, path string, fileSize, off, length int64, format Format) (*Block, error) {
	if format == FormatNone {
		return nil, fmt.Errorf("colscan: cannot decode format None")
	}
	if off < 0 || length < 0 || off > fileSize {
		return nil, fmt.Errorf("colscan: split [%d,+%d) outside file of %d bytes", off, length, fileSize)
	}
	end := off + length
	if end > fileSize {
		end = fileSize
	}
	blk := &Block{format: format}
	// Read the split body in one call, starting one byte early so a
	// newline exactly at off-1 marks a record starting at off.
	lo := off
	if off > 0 {
		lo--
	}
	buf := make([]byte, end-lo)
	if len(buf) > 0 {
		if _, err := r.ReadAt(path, lo, buf); err != nil {
			return nil, fmt.Errorf("colscan: read %s [%d,+%d): %w", path, lo, len(buf), err)
		}
	}
	filled := end // file offset up to which buf holds data
	extend := func() error {
		if filled >= fileSize {
			return io.EOF
		}
		n := int64(extendChunk)
		if filled+n > fileSize {
			n = fileSize - filled
		}
		chunk := make([]byte, n)
		if _, err := r.ReadAt(path, filled, chunk); err != nil {
			return fmt.Errorf("colscan: read %s [%d,+%d): %w", path, filled, n, err)
		}
		buf = append(buf, chunk...)
		filled += n
		return nil
	}
	// Skip the partial first line: the first record of a non-initial
	// split starts after the first newline at or beyond off-1.
	cur := 0
	if off > 0 {
		for {
			i := bytes.IndexByte(buf[cur:], '\n')
			if i >= 0 {
				cur += i + 1
				break
			}
			cur = len(buf)
			if err := extend(); err != nil {
				if errors.Is(err, io.EOF) {
					return blk, nil // one unterminated line spans the split: no records start here
				}
				return nil, err
			}
		}
	}
	var intern map[string]uint32
	if format == FormatKV {
		intern = make(map[string]uint32)
	}
	for {
		start := lo + int64(cur)
		if start >= end {
			break // records must START strictly before the split end
		}
		nl := bytes.IndexByte(buf[cur:], '\n')
		for nl < 0 {
			err := extend()
			if errors.Is(err, io.EOF) {
				break // unterminated final record at EOF
			}
			if err != nil {
				return nil, err
			}
			nl = bytes.IndexByte(buf[cur:], '\n')
		}
		var line []byte
		if nl >= 0 {
			line = buf[cur : cur+nl]
			cur += nl + 1
		} else {
			line = buf[cur:]
			cur = len(buf)
		}
		blk.starts = append(blk.starts, start)
		blk.lastEnd = start + int64(len(line))
		if format == FormatKV {
			tab := bytes.IndexByte(line, '\t')
			if tab < 0 {
				return nil, fmt.Errorf("colscan: %s@%d: no tab separator in record %s: %w",
					path, start, quoteBytes(line), ErrBadRecord)
			}
			ki, ok := intern[string(line[:tab])]
			if !ok {
				ki = uint32(len(blk.dict))
				blk.dict = append(blk.dict, string(line[:tab]))
				intern[string(line[:tab])] = ki
			}
			v, err := ParseValue(line[tab+1:])
			if err != nil {
				return nil, fmt.Errorf("colscan: %s@%d: %w", path, start, err)
			}
			blk.keys = append(blk.keys, ki)
			blk.vals = append(blk.vals, v)
		} else {
			v, err := ParseValue(line)
			if err != nil {
				return nil, fmt.Errorf("colscan: %s@%d: %w", path, start, err)
			}
			blk.vals = append(blk.vals, v)
		}
		if nl < 0 {
			break // consumed the unterminated tail
		}
	}
	return blk, nil
}
