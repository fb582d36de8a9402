package colscan

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// wideStarts is what a Block's record starts were before they became a
// base and 32-bit offsets: absolute int64 offsets, searched and
// subtracted as such. The accessors must still answer exactly this.
type wideStarts struct {
	starts  []int64
	lastEnd int64
}

func (w wideStarts) recLen(i int) int {
	if i+1 < len(w.starts) {
		return int(w.starts[i+1] - w.starts[i] - 1)
	}
	return int(w.lastEnd - w.starts[i])
}

func (w wideStarts) findRecord(pos int64) int {
	lo, hi := 0, len(w.starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.starts[mid] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// splitStarts finds, with the Hadoop rule and nothing else, the records
// of data that start in [off, off+length): a record starts at 0 or
// after a newline, and runs to the next newline or the end of data.
func splitStarts(data []byte, off, length int64) wideStarts {
	var w wideStarts
	for pos := int64(0); pos < int64(len(data)); {
		end := int64(len(data))
		if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
			end = pos + int64(nl)
		}
		if pos >= off && pos < off+length {
			w.starts = append(w.starts, pos)
			w.lastEnd = end
		}
		pos = end + 1
	}
	return w
}

// TestStartsMatchWideOffsets sweeps files through every split size:
// each block's Start, RecLen and — at every byte position of the file,
// before, inside and past the block — FindRecord equal what absolute
// 64-bit starts give. The files end with and without a newline, and
// every split but the last ends inside a record that runs past it.
func TestStartsMatchWideOffsets(t *testing.T) {
	for _, data := range []string{
		"1\n22\n333\n4444\n55555\n666666\n7777777\n",
		"1\n22\n333\n4444\n55555\n666666\n7777777",
		strings.Repeat("12345678\n", 7) + "9",
		"1234567890123456789012345678901234567890\n1\n", // one record spans many splits
	} {
		fsize := int64(len(data))
		mf := &memFile{data: []byte(data)}
		for split := int64(1); split <= fsize+1; split++ {
			for off := int64(0); off < fsize; off += split {
				blk, err := Decode(mf, "/f", fsize, off, split, FormatNumeric)
				if err != nil {
					t.Fatalf("%q [%d,+%d): %v", data, off, split, err)
				}
				want := splitStarts([]byte(data), off, split)
				if blk.NumRecords() != len(want.starts) {
					t.Fatalf("%q [%d,+%d): %d records, want %d", data, off, split, blk.NumRecords(), len(want.starts))
				}
				for i, s := range want.starts {
					if blk.Start(i) != s || blk.RecLen(i) != want.recLen(i) {
						t.Fatalf("%q [%d,+%d) record %d: start %d len %d, want %d %d",
							data, off, split, i, blk.Start(i), blk.RecLen(i), s, want.recLen(i))
					}
				}
				for pos := int64(-1); pos <= fsize+1; pos++ {
					if got, w := blk.FindRecord(pos), want.findRecord(pos); got != w {
						t.Fatalf("%q [%d,+%d): FindRecord(%d) = %d, want %d", data, off, split, pos, got, w)
					}
				}
				for _, pos := range []int64{math.MinInt64, math.MaxInt64, math.MaxUint32, math.MaxUint32 + off + 1} {
					if got, w := blk.FindRecord(pos), want.findRecord(pos); got != w {
						t.Fatalf("%q [%d,+%d): FindRecord(%d) = %d, want %d", data, off, split, pos, got, w)
					}
				}
			}
		}
	}
}

// TestBlocksEqualWhicheverPathBuiltThem: the text decoder, NewBlock and
// NewBlockLE, given the same records of a split that does not start at
// a record boundary, build the same Block field for field.
func TestBlocksEqualWhicheverPathBuiltThem(t *testing.T) {
	data := []byte("a\t1\nbb\t2.5\na\t-3\nccc\t4e2\n")
	const off, length = 5, 14 // "b\t2.5\n" is skipped as a partial line: records at 11 and 16
	text, err := Decode(&memFile{data: data}, "/f", int64(len(data)), off, length, FormatKV)
	if err != nil {
		t.Fatal(err)
	}
	if text.NumRecords() != 2 || text.Start(0) != 11 || text.Start(1) != 16 {
		t.Fatalf("text decode: %+v", text)
	}
	built, err := NewBlock(FormatKV, []int64{11, 16}, 23, []float64{-3, 400}, []uint32{0, 1}, []string{"a", "ccc"})
	if err != nil {
		t.Fatal(err)
	}
	le := func(words ...uint32) []byte {
		var b []byte
		for _, w := range words {
			b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		return b
	}
	bits := func(v float64) (lo, hi uint32) {
		u := math.Float64bits(v)
		return uint32(u), uint32(u >> 32)
	}
	l0, h0 := bits(-3)
	l1, h1 := bits(400)
	wire, err := (*Spares)(nil).NewBlockLE(FormatKV, off, 23, le(11-off, 16-off), le(l0, h0, l1, h1), le(0, 1), []string{"a", "ccc"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(built, text) || !reflect.DeepEqual(wire, text) {
		t.Fatalf("blocks differ by builder:\n text %+v\n NewBlock %+v\n NewBlockLE %+v", text, built, wire)
	}
	if text.SizeBytes() != 2*16+(1+16)+(3+16)+64 {
		t.Fatalf("SizeBytes = %d: a KV record is 16 bytes", text.SizeBytes())
	}
}

// sparseFile is a ReaderAt over a file too large to hold: it fails the
// test if anything asks it for more than a line's worth of bytes.
type sparseFile struct{ t *testing.T }

func (s sparseFile) ReadAt(_ string, _ int64, p []byte) (int, error) {
	if len(p) > 1<<20 {
		s.t.Fatalf("ReadAt asked for %d bytes of a file that is not there", len(p))
	}
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

// TestSpansPast4GiBAreRefused: a record start more than 2^32-1 bytes
// past its block's first cannot be held, and no builder may wrap it
// into a wrong offset — Decode refuses the split before reading it,
// NewBlock refuses the starts.
func TestSpansPast4GiBAreRefused(t *testing.T) {
	const fileSize = 6 << 30
	if _, err := Decode(sparseFile{t}, "/huge", fileSize, 100, math.MaxUint32+1, FormatNumeric); err == nil {
		t.Fatal("Decode accepted a split of 2^32 bytes")
	}
	// The file's end clips the split back inside the limit: nothing to refuse.
	if _, err := Decode(sparseFile{t}, "/huge", 64, 0, math.MaxUint32+1, FormatNumeric); err == nil || !strings.Contains(err.Error(), "empty value") {
		t.Fatalf("Decode of a clipped split = %v, want the decode to run (and meet the stub's empty lines)", err)
	}
	vals := []float64{1, 2}
	if _, err := NewBlock(FormatNumeric, []int64{7, 7 + math.MaxUint32 + 1}, 8+math.MaxUint32+1, vals, nil, nil); err == nil {
		t.Fatal("NewBlock accepted starts 2^32 bytes apart")
	}
	blk, err := NewBlock(FormatNumeric, []int64{7, 7 + math.MaxUint32}, 8+math.MaxUint32, vals, nil, nil)
	if err != nil {
		t.Fatalf("NewBlock refused starts 2^32-1 bytes apart: %v", err)
	}
	if blk.Start(1) != 7+math.MaxUint32 || blk.RecLen(1) != 1 || blk.FindRecord(6+math.MaxUint32) != 0 || blk.FindRecord(math.MaxInt64) != 1 {
		t.Fatalf("widest block: start %d, len %d", blk.Start(1), blk.RecLen(1))
	}
}
