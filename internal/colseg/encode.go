package colseg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/colscan"
)

// Build encodes a complete sidecar for a data file's current contents.
// segments is the file's append-segment start offsets (ascending, first
// 0: the write, then one per Append) and chunkSize the split size the
// reader's geometry will use (the dfs block size): each segment is
// tiled independently, exactly like dfs.Splits, so pre-append chunks
// stay byte-stable when the sidecar is later extended. The returned
// slice is exactly as large as the sidecar (cap == len): dfs keeps it
// for the life of the file version, so growth slack would be retained.
//
// Any record the colscan validators reject (malformed line, NaN/±Inf
// value) fails the whole Build: such files keep no sidecar, and the
// text decoder remains the single authority on decode errors.
func Build(f colscan.Format, version int64, data []byte, segments []int64, chunkSize int64) ([]byte, error) {
	if chunkSize <= 0 {
		return nil, fmt.Errorf("colseg: chunk size %d", chunkSize)
	}
	if len(segments) == 0 || segments[0] != 0 {
		return nil, fmt.Errorf("colseg: segment list must start at 0")
	}
	segEnd := func(si int) int64 {
		if si+1 < len(segments) {
			return segments[si+1]
		}
		return int64(len(data))
	}
	size := headerSize + tailSize
	for si, segStart := range segments {
		if segStart > segEnd(si) {
			return nil, fmt.Errorf("colseg: segment %d starts past its end", si)
		}
		if segStart > 0 && data[segStart-1] != '\n' {
			// dfs guarantees record-aligned appends; a violation here
			// would desynchronize chunk record ownership from Decode's.
			return nil, fmt.Errorf("colseg: segment %d not record-aligned", si)
		}
		payload, chunks := chunkSizeHint(f, data[segStart:segEnd(si)], chunkSize)
		size += payload + chunks*entrySize
	}
	buf := appendHeader(make([]byte, 0, size), header{format: f, version: version, cover: int64(len(data))})
	var entries []entry
	for si, segStart := range segments {
		var err error
		buf, entries, err = appendSegmentChunks(buf, 0, entries, f, data[segStart:segEnd(si)], segStart, chunkSize)
		if err != nil {
			return nil, err
		}
	}
	buf = appendFooter(buf, entries)
	if cap(buf) > len(buf) {
		// KV dictionaries outgrew the hint: drop append's growth slack.
		buf = append(make([]byte, 0, len(buf)), buf...)
	}
	return buf, nil
}

// Tail is what appending one segment changes in a sidecar: everything
// between the old header and the old footer — the pre-append chunk
// payloads — stays where it is, byte for byte.
type Tail struct {
	Header []byte // the successor's header (cover advanced)
	Chunks []byte // the new segment's chunk payloads; they start where the old footer did
	Footer []byte // the successor's footer: old entries, new entries, trailer
}

// Cover returns the data bytes a sidecar header says its chunks tile,
// [0, cover): the offset the next ExtendTail must start at.
func Cover(header []byte) (int64, error) {
	h, err := parseHeader(header)
	return h.cover, err
}

// ExtendTail encodes the Tail for one freshly appended segment given
// only the predecessor sidecar's header and footer (the footer starts
// at sidecar offset footerStart) — the cost is the batch plus one
// footer entry per chunk, whatever the size of the file. The sidecar
// must have been built for the same write generation and must cover
// the file exactly up to segStart. dfs skips extension for
// sub-threshold appends, so cover can legitimately lag; the next large
// append catches it up by extending over each uncovered segment in
// turn, Tail after Tail, before its own.
func ExtendTail(oldHeader, oldFooter []byte, footerStart, version int64, segData []byte, segStart, chunkSize int64) (Tail, error) {
	if chunkSize <= 0 {
		return Tail{}, fmt.Errorf("colseg: chunk size %d", chunkSize)
	}
	if len(oldHeader) != headerSize {
		return Tail{}, fmt.Errorf("%w: header of %d bytes", ErrCorrupt, len(oldHeader))
	}
	h, err := parseHeader(oldHeader)
	if err != nil {
		return Tail{}, err
	}
	if h.version != version {
		return Tail{}, fmt.Errorf("colseg: sidecar at generation %d, file at %d", h.version, version)
	}
	if h.cover != segStart {
		return Tail{}, fmt.Errorf("colseg: sidecar covers %d bytes, append starts at %d", h.cover, segStart)
	}
	if len(oldFooter) < tailSize {
		return Tail{}, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	table := oldFooter[:len(oldFooter)-tailSize]
	count, start, err := parseTail(oldFooter[len(table):], footerStart+int64(len(oldFooter)))
	if err != nil {
		return Tail{}, err
	}
	if start != footerStart {
		return Tail{}, fmt.Errorf("%w: footer of %d bytes for %d entries", ErrCorrupt, len(oldFooter), count)
	}
	entries, err := parseEntries(table, count, footerStart)
	if err != nil {
		return Tail{}, err
	}
	payload, chunks := chunkSizeHint(h.format, segData, chunkSize)
	buf, entries, err := appendSegmentChunks(make([]byte, 0, payload), footerStart, entries, h.format, segData, segStart, chunkSize)
	if err != nil {
		return Tail{}, err
	}
	h.cover = segStart + int64(len(segData))
	return Tail{
		Header: appendHeader(make([]byte, 0, headerSize), h),
		Chunks: buf,
		Footer: appendFooter(make([]byte, 0, len(oldFooter)+chunks*entrySize), entries),
	}, nil
}

// Split cuts a whole in-memory sidecar into its three sections —
// header, chunk payloads, footer — trusting only the trailing count and
// magic for where the footer starts.
func Split(sidecar []byte) (header, chunks, footer []byte, err error) {
	if len(sidecar) < headerSize+tailSize {
		return nil, nil, nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	_, footerStart, err := parseTail(sidecar[len(sidecar)-tailSize:], int64(len(sidecar)))
	if err != nil {
		return nil, nil, nil, err
	}
	return sidecar[:headerSize], sidecar[headerSize:footerStart], sidecar[footerStart:], nil
}

// Extend grows an existing whole sidecar with one freshly appended
// segment: ExtendTail's output spliced around the old chunk payloads,
// which are preserved byte-for-byte (only the header's cover field and
// the footer move). dfs holds sidecars in pieces and splices the Tail
// itself; this form is for callers that hold one contiguous sidecar.
func Extend(sidecar []byte, version int64, segData []byte, segStart, chunkSize int64) ([]byte, error) {
	header, chunks, footer, err := Split(sidecar)
	if err != nil {
		return nil, err
	}
	t, err := ExtendTail(header, footer, int64(len(header)+len(chunks)), version, segData, segStart, chunkSize)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(header)+len(chunks)+len(t.Chunks)+len(t.Footer))
	buf = append(buf, t.Header...)
	buf = append(buf, chunks...)
	buf = append(buf, t.Chunks...)
	return append(buf, t.Footer...), nil
}

// chunkSizeHint sizes one segment's encoding before any record is
// parsed: the bytes its chunk payloads take and how many chunks tile
// it. The payload figure is exact for numeric data and leaves out the
// key dictionaries of KV data, which only the encode pass can size.
func chunkSizeHint(f colscan.Format, segData []byte, chunkSize int64) (payload, chunks int) {
	recs := recordCount(segData)
	chunks = int((int64(len(segData)) + chunkSize - 1) / chunkSize)
	payload = chunks*(4+8) + recs*(4+8)
	if f == colscan.FormatKV {
		payload += chunks*4 + recs*4
	}
	return payload, chunks
}

// recordCount returns how many records segData holds: one per newline,
// and one more for a last record without one.
func recordCount(segData []byte) int {
	recs := bytes.Count(segData, []byte{'\n'})
	if n := len(segData); n > 0 && segData[n-1] != '\n' {
		recs++
	}
	return recs
}

// appendSegmentChunks encodes one append segment's chunks onto buf,
// tiled at chunkSize from segBase — the same geometry dfs.Splits emits
// for that segment — and indexes them in entries; buf[0] sits at
// sidecar offset bufPos. segData's first byte must be a record start
// (dfs's record-aligned append invariant).
//
//earl:hotpath
func appendSegmentChunks(buf []byte, bufPos int64, entries []entry, f colscan.Format, segData []byte, segBase, chunkSize int64) ([]byte, []entry, error) {
	// One pass over the segment finds every record's start and content
	// end (absolute file offsets). The Hadoop split rules then reduce to
	// slicing this list: a chunk owns the records starting inside it.
	// Both columns come out of one allocation of exactly their size.
	recs := recordCount(segData)
	offsets := make([]int64, 2*recs)
	starts, ends := offsets[:0:recs], offsets[recs:recs]
	for pos := 0; pos < len(segData); {
		nl := bytes.IndexByte(segData[pos:], '\n')
		starts = append(starts, segBase+int64(pos))
		if nl < 0 {
			ends = append(ends, segBase+int64(len(segData)))
			pos = len(segData)
		} else {
			ends = append(ends, segBase+int64(pos+nl))
			pos += nl + 1
		}
	}
	segEnd := segBase + int64(len(segData))
	rec := 0
	for off := segBase; off < segEnd; off += chunkSize {
		end := off + chunkSize
		if end > segEnd {
			end = segEnd
		}
		lo := rec
		for rec < len(starts) && starts[rec] < end {
			rec++
		}
		pos := len(buf)
		var err error
		buf, err = appendChunk(buf, f, off, segBase, segData, starts[lo:rec], ends[lo:rec])
		if err != nil {
			return nil, nil, err
		}
		payload := buf[pos:]
		entries = append(entries, entry{
			offset: off,
			length: end - off,
			pos:    bufPos + int64(pos),
			size:   int64(len(payload)),
			crc:    checksum(payload),
		})
	}
	return buf, entries, nil
}

// appendChunk encodes one split's records. starts/ends are absolute
// file offsets of the owned records; lines are sliced out of segData
// (whose first byte sits at file offset segBase) and parsed with the
// exact colscan validators, so the decoded block is bit-identical to a
// text Decode of the same split.
//
//earl:hotpath
func appendChunk(buf []byte, f colscan.Format, chunkOff, segBase int64, segData []byte, starts, ends []int64) ([]byte, error) {
	n := len(starts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	if n == 0 {
		// Match Decode's empty block exactly: zero lastEnd.
		return binary.LittleEndian.AppendUint64(buf, 0), nil
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ends[n-1]))
	for _, s := range starts {
		d := s - chunkOff
		if d < 0 || d > math.MaxUint32 {
			return nil, fmt.Errorf("colseg: record start %d outside chunk at %d", s, chunkOff)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	var keys []uint32
	var dict [][]byte
	var intern map[string]uint32
	if f == colscan.FormatKV {
		keys = make([]uint32, 0, n)
		intern = make(map[string]uint32)
	}
	for i := 0; i < n; i++ {
		line := segData[starts[i]-segBase : ends[i]-segBase]
		var v float64
		var err error
		if f == colscan.FormatKV {
			tab := bytes.IndexByte(line, '\t')
			if tab < 0 {
				return nil, fmt.Errorf("colseg: no tab separator in record %s: %w",
					colscan.Quote(string(line)), colscan.ErrBadRecord)
			}
			ki, ok := intern[string(line[:tab])]
			if !ok {
				ki = uint32(len(dict))
				dict = append(dict, line[:tab])
				intern[string(line[:tab])] = ki
			}
			keys = append(keys, ki)
			v, err = colscan.ParseValue(line[tab+1:])
		} else {
			v, err = colscan.ParseValue(line)
		}
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	if f == colscan.FormatKV {
		for _, ki := range keys {
			buf = binary.LittleEndian.AppendUint32(buf, ki)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dict)))
		for _, k := range dict {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
			buf = append(buf, k...)
		}
	}
	return buf, nil
}

// decodeChunk loads one checksummed chunk payload into a colscan block.
// This side owns the framing — the counts, the column boundaries, the
// dictionary — and every length it reads is bounded by the bytes left
// before anything is sized from it (a matching CRC proves the bytes are
// the ones written, not that a writer was honest). The columns go to
// colscan.NewBlockLE as sub-slices of payload, which converts and
// validates each in one pass into storage the block owns; dictionary
// strings are copied out here. The block keeps nothing of payload.
// chunkOff is the split offset the starts were delta-encoded against;
// the columns are built on sp's parked storage (fresh when sp is nil).
//
//earl:hotpath
func decodeChunk(payload []byte, f colscan.Format, chunkOff int64, sp *colscan.Spares) (*colscan.Block, error) {
	p := payload
	if len(p) < 4+8 {
		return nil, fmt.Errorf("%w: chunk shorter than its count and lastEnd", ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint32(p))
	lastEnd := int64(binary.LittleEndian.Uint64(p[4:]))
	p = p[4+8:]
	keyed := f == colscan.FormatKV && n > 0 // an empty chunk ends at lastEnd under either format
	need := n * 12                          // starts + vals
	if keyed {
		need += n*4 + 4
	}
	if int64(len(p)) < need {
		return nil, fmt.Errorf("%w: chunk truncated (%d of %d column bytes)", ErrCorrupt, len(p), need)
	}
	starts, vals := p[:n*4], p[n*4:n*12]
	p = p[n*12:]
	var keys []byte
	var dict []string
	if keyed {
		keys = p[:n*4]
		nd := int64(binary.LittleEndian.Uint32(p[n*4:]))
		p = p[n*4+4:]
		if nd*4 > int64(len(p)) {
			return nil, fmt.Errorf("%w: dictionary of %d entries in %d bytes", ErrCorrupt, nd, len(p))
		}
		dict = make([]string, 0, nd)
		for i := int64(0); i < nd; i++ {
			if len(p) < 4 {
				return nil, fmt.Errorf("%w: dictionary truncated", ErrCorrupt)
			}
			kl := int64(binary.LittleEndian.Uint32(p))
			p = p[4:]
			if int64(len(p)) < kl {
				return nil, fmt.Errorf("%w: dictionary entry truncated", ErrCorrupt)
			}
			dict = append(dict, string(p[:kl]))
			p = p[kl:]
		}
	}
	blk, err := sp.NewBlockLE(f, chunkOff, lastEnd, starts, vals, keys, dict)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return blk, nil
}
