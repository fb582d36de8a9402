package colscan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/pool"
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

// Block is one split, decoded once: record-start offsets, a parsed
// value column, and (for FormatKV) dictionary-interned keys. A Block is
// immutable once built, while held, and safe for concurrent readers —
// the cache hands the same Block to every watch on the file, each with
// a hold that Release gives back (see Cache); a block no cache handed
// out holds nothing and is never recycled. Decode and
// Spares.NewBlockLE copy everything out of the bytes they read, so a Block
// never pins a read buffer or a view of stored sidecar bytes (NewBlock
// keeps the columns its caller built for it).
//
// Record starts are held as 32-bit offsets from the first record's
// start — the one representation, whichever path built the block, so
// blocks holding the same records are equal field for field. A block
// therefore spans at most 4 GiB between its first and last record
// start; the builders return an error rather than wrap.
type Block struct {
	format Format
	base   int64    // absolute file offset of record 0's first byte (0 when empty)
	offs   []uint32 // record i starts at base + offs[i]; offs[0] == 0
	// lastEnd is the offset one past the final record's last content
	// byte (its newline, if terminated, sits at lastEnd).
	lastEnd int64
	vals    []float64
	keys    []uint32 // dict indices, FormatKV only
	dict    []string // interned key strings, FormatKV only
	// own is the cache entry that handed the block out, set by the cache
	// alone (nil for every block built outside it).
	own *cacheEntry
}

// Release gives back the hold the Load, Peek or LoadSplit that returned
// b took. Neither b nor a column slice taken from it may be read after:
// the last release of a block the cache dropped hands its storage to
// another block. Releasing a block no cache handed out (or nil) does
// nothing; releasing one more often than it was handed out panics.
func (b *Block) Release() {
	if b != nil && b.own != nil {
		b.own.c.release(b.own)
	}
}

// Selection returns b's memoized selection under key — derived data of
// the cached block, such as the records a filter keeps
// (plan.Program.KeepBlock keys it by the filter's canonical text) —
// building it with build on a miss. A cached block holds one memo: a
// build under another key replaces it. The memo is a copy of build's
// result at its exact length, so build may return a scratch buffer, and
// its bytes count toward the block's cache footprint. Concurrent callers
// on one block build once: build runs under the block's memo lock, so
// it must not call Selection itself. The result is shared and
// read-only, valid while b is held. A block no cache handed out
// memoizes nothing: each call returns build's result itself.
func (b *Block) Selection(key string, build func() []int32) []int32 {
	if b.own == nil {
		return build()
	}
	return b.own.c.selection(b.own, key, build)
}

// Spares is column storage parked for reuse: the arrays of blocks a
// Cache dropped and nobody holds any more. Building a block through
// Spares takes arrays from it where one fits, so a cold miss skips
// allocating and zeroing fresh columns. A nil *Spares allocates.
type Spares struct {
	u32    pool.Spares[uint32] // start offsets and key ids
	f64    pool.Spares[float64]
	reused atomic.Int64 // blocks built on parked storage
}

// columns returns storage for n records' columns, keys only when keyed,
// with unspecified contents.
func (sp *Spares) columns(n int, keyed bool) (offs []uint32, vals []float64, keys []uint32) {
	if sp == nil {
		offs, vals = make([]uint32, n), make([]float64, n)
		if keyed {
			keys = make([]uint32, n)
		}
		return offs, vals, keys
	}
	offs, r1 := sp.u32.Take(n)
	vals, r2 := sp.f64.Take(n)
	r3 := false
	if keyed {
		keys, r3 = sp.u32.Take(n)
	}
	if r1 || r2 || r3 {
		sp.reused.Add(1)
	}
	return offs, vals, keys
}

// NumRecords returns the number of records decoded from the split.
func (b *Block) NumRecords() int { return len(b.offs) }

// Start returns the absolute file offset of record i.
func (b *Block) Start(i int) int64 { return b.base + int64(b.offs[i]) }

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
	if i+1 < len(b.offs) {
		return int(b.offs[i+1] - b.offs[i] - 1)
	}
	return int(b.lastEnd - b.Start(i))
}

// SizeBytes estimates the block's retained memory for cache accounting:
// 4 bytes a start offset and 8 a value, 4 more a key id under FormatKV,
// each counted by the capacity its array keeps alive, plus the
// dictionary's strings.
func (b *Block) SizeBytes() int64 {
	n := int64(cap(b.offs))*4 + int64(cap(b.vals))*8 + int64(cap(b.keys))*4
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

// maxSpan is the farthest a record may start past its block's first
// record: what a 32-bit start offset can hold.
const maxSpan = math.MaxUint32

// NewBlock builds a Block from columns a caller decoded itself — the
// entry point for records no built-in format describes (a custom
// parser's split scan, sampling.Parser) and for hand-built blocks. It
// checks every structural invariant Decode guarantees (column lengths
// agree, starts ascending strictly, non-negative and within 4 GiB of
// the first, lastEnd not before the last start, values finite,
// dictionary indices in range, no key columns on a numeric block), so a
// misshapen block or a NaN can never get past the decode boundary.
// starts holds absolute file offsets and is converted, not kept; vals,
// keys and dict are retained, not copied.
func NewBlock(f Format, starts []int64, lastEnd int64, vals []float64, keys []uint32, dict []string) (*Block, error) {
	if err := checkShape(f, len(starts), len(vals), len(keys), len(dict)); err != nil {
		return nil, err
	}
	blk := &Block{format: f, lastEnd: lastEnd, vals: vals, keys: keys, dict: dict}
	if len(starts) > 0 {
		blk.base = starts[0]
		blk.offs = make([]uint32, len(starts))
	}
	for i, s := range starts {
		if s < 0 || (i > 0 && s <= starts[i-1]) {
			return nil, fmt.Errorf("colscan: record starts not ascending at %d", i)
		}
		if s-blk.base > maxSpan {
			return nil, fmt.Errorf("colscan: record %d starts more than 4 GiB past the block's first", i)
		}
		blk.offs[i] = uint32(s - blk.base)
	}
	if n := len(starts); n > 0 && lastEnd < starts[n-1] {
		return nil, fmt.Errorf("colscan: lastEnd %d before final record start %d", lastEnd, starts[n-1])
	}
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("colscan: non-finite value at record %d", i)
		}
	}
	for i, ki := range keys {
		if int(ki) >= len(dict) {
			return nil, fmt.Errorf("colscan: key index %d out of dictionary (%d) at record %d", ki, len(dict), i)
		}
	}
	return blk, nil
}

// checkShape is the part of the block invariants that needs no column
// walk: a known format, one value (and under FormatKV one key) per
// record start, and no key columns on a numeric block.
func checkShape(f Format, starts, vals, keys, dict int) error {
	switch {
	case f != FormatNumeric && f != FormatKV:
		return fmt.Errorf("colscan: no block format %d", f)
	case vals != starts:
		return fmt.Errorf("colscan: %d values for %d record starts", vals, starts)
	case f == FormatKV && keys != vals:
		return fmt.Errorf("colscan: %d keys for %d values", keys, vals)
	case f == FormatNumeric && (keys != 0 || dict != 0):
		return fmt.Errorf("colscan: key columns on a numeric block")
	}
	return nil
}

// NewBlockLE builds a Block from little-endian column images — the
// persistent sidecar's wire form (internal/colseg frames and checksums
// it, and decodes the dictionary): starts is one uint32 per record, its
// start's distance from splitOff; vals one float64 bit pattern per
// record; keys, under FormatKV, one uint32 dictionary index per record.
// Each column is converted into the block's own storage and checked
// against NewBlock's invariants in the same single pass, so a cold load
// walks its bytes once and nothing unchecked becomes a Block. The images
// are only read: the block keeps no reference to them (dict it keeps).
// The columns go into sp's parked storage where it has some; a nil sp
// allocates them fresh.
func (sp *Spares) NewBlockLE(f Format, splitOff, lastEnd int64, starts, vals, keys []byte, dict []string) (*Block, error) {
	n := len(starts) / 4
	if len(starts)%4 != 0 || len(vals)%8 != 0 || len(keys)%4 != 0 {
		return nil, fmt.Errorf("colscan: ragged column images (%d, %d, %d bytes)", len(starts), len(vals), len(keys))
	}
	if err := checkShape(f, n, len(vals)/8, len(keys)/4, len(dict)); err != nil {
		return nil, err
	}
	blk := &Block{format: f, lastEnd: lastEnd, dict: dict}
	if n == 0 {
		return blk, nil
	}
	if splitOff < 0 || splitOff > math.MaxInt64-2*maxSpan {
		return nil, fmt.Errorf("colscan: split offset %d out of range", splitOff)
	}
	blk.base = splitOff + int64(binary.LittleEndian.Uint32(starts))
	blk.offs, blk.vals, blk.keys = sp.columns(n, f == FormatKV)
	blk.offs[0] = 0 // startsLE leaves it: parked storage is not zeroed
	if i := startsLE(blk.offs, starts); i >= 0 {
		return nil, fmt.Errorf("colscan: record starts not ascending at %d", i)
	}
	if last := blk.Start(n - 1); lastEnd < last {
		return nil, fmt.Errorf("colscan: lastEnd %d before final record start %d", lastEnd, last)
	}
	if i := valuesLE(blk.vals, vals); i >= 0 {
		return nil, fmt.Errorf("colscan: non-finite value at record %d", i)
	}
	if f == FormatKV {
		if i := keysLE(blk.keys, keys, len(dict)); i >= 0 {
			return nil, fmt.Errorf("colscan: key index %d out of dictionary (%d) at record %d", blk.keys[i], len(dict), i)
		}
	}
	return blk, nil
}

// startsLE converts the start column: dst[i] is record i's distance
// from record 0 (dst[0] is the caller's to set), which must grow
// strictly. It returns the first record that breaks the order, -1 if
// none does. len(src) == 4*len(dst) > 0.
//
//earl:hotpath
func startsLE(dst []uint32, src []byte) int {
	src = src[:len(dst)*4]
	first := binary.LittleEndian.Uint32(src)
	prev := first
	for i := 1; i < len(dst); i++ {
		d := binary.LittleEndian.Uint32(src[i*4 : i*4+4 : i*4+4])
		if d <= prev {
			return i
		}
		dst[i] = d - first
		prev = d
	}
	return -1
}

// valuesLE converts the value column and returns the first record whose
// value is NaN or ±Inf (an all-ones exponent), -1 if all are finite.
// len(src) == 8*len(dst).
//
//earl:hotpath
func valuesLE(dst []float64, src []byte) int {
	const exponent = 0x7FF << 52
	src = src[:len(dst)*8]
	for i := range dst {
		bits := binary.LittleEndian.Uint64(src[i*8 : i*8+8 : i*8+8])
		if bits&exponent == exponent {
			return i
		}
		dst[i] = math.Float64frombits(bits)
	}
	return -1
}

// keysLE converts the key-id column and returns the first record whose
// id is not below dict (leaving the id in dst for the error), -1 if all
// are. len(src) == 4*len(dst).
//
//earl:hotpath
func keysLE(dst []uint32, src []byte, dict int) int {
	src = src[:len(dst)*4]
	for i := range dst {
		ki := binary.LittleEndian.Uint32(src[i*4 : i*4+4 : i*4+4])
		dst[i] = ki
		if int(ki) >= dict {
			return i
		}
	}
	return -1
}

// FindRecord returns the index of the record containing absolute file
// offset pos — the largest i with Start(i) <= pos, mirroring the dfs
// ReadLineAt rule that a newline belongs to the record it terminates.
// It returns -1 when pos precedes the block's first record (the tail of
// a record owned by the previous split); the caller falls back to the
// seek path for that draw.
//
// The first probe interpolates: pos's share of the block's byte span
// times the record count, which is the answer outright when records are
// of one width. From there the search gallops outward until it brackets
// pos and bisects the bracket, so a block of any shape costs O(log d)
// probes, d the guess's distance from the answer — never more than a
// plain binary search's order.
//
//earl:hotpath
func (b *Block) FindRecord(pos int64) int {
	n := len(b.offs)
	if pos < b.base || n == 0 {
		return -1
	}
	if pos-b.base > maxSpan {
		return n - 1
	}
	rel := uint32(pos - b.base)
	// rel < 2^32 and n ≤ 2^32 (the offsets are distinct uint32s), so the
	// product fits 64 bits; span ≥ 1 since lastEnd ≥ the last start.
	span := uint64(b.lastEnd-b.base) + 1
	g := int(min(uint64(rel)*uint64(n)/span, uint64(n-1)))
	// Bracket the answer: offs[lo] <= rel, and hi == n or offs[hi] > rel.
	// offs[0] == 0 <= rel, so a downward gallop always has a floor.
	lo, hi := g, g+1
	if b.offs[g] <= rel {
		for step := 1; hi < n && b.offs[hi] <= rel; step *= 2 {
			lo, hi = hi, min(hi+step, n)
		}
	} else {
		hi = g
		for step := 1; ; step *= 2 {
			lo = max(hi-step, 0)
			if b.offs[lo] <= rel {
				break
			}
			hi = lo
		}
	}
	for lo+1 < hi { // offs[lo] <= rel < offs[hi]
		mid := int(uint(lo+hi) >> 1)
		if b.offs[mid] <= rel {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
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
	if end-off > maxSpan {
		// Before the body is read: a record start this far in would not
		// fit a 32-bit offset.
		return nil, fmt.Errorf("colscan: split [%d,+%d) spans more than 4 GiB", off, end-off)
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
		if len(blk.offs) == 0 {
			blk.base = start
		}
		blk.offs = append(blk.offs, uint32(start-blk.base)) // < end-off <= maxSpan
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
