package colscan

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// referenceDecode is the oracle: split data into newline-terminated
// records (an unterminated tail is still a record) and run each through
// the per-record parser — exactly what the seek path does line by line.
func referenceDecode(data []byte, f Format) (*Cols, error) {
	cols := &Cols{}
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		if err := AppendParsedLine(cols, f, line); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// FuzzColumnarDecode drives the block decoder against the per-record
// reference: same keys, same values (bit for bit), same record count,
// same accept/reject verdict — the same block again when built from its
// sidecar images into recycled 0xFF-filled storage, and a block decoded
// before an append replays bit-identically from the cache afterwards.
func FuzzColumnarDecode(f *testing.F) {
	f.Add([]byte("1\n2.5\n-3e2\n"), false, uint16(4))
	f.Add([]byte("a\t1\nbb\t2\na\t3.5\n"), true, uint16(4))
	f.Add([]byte("k\tNaN\n"), true, uint16(0))
	f.Add([]byte(" 7 \n+Inf\n"), false, uint16(2))
	f.Add([]byte("1"), false, uint16(1))
	f.Add([]byte("\n\n"), false, uint16(1))
	f.Add([]byte("key only\n"), true, uint16(9))
	f.Add([]byte("0x1p2\n1_0\n9007199254740993\n"), false, uint16(6))
	f.Fuzz(func(t *testing.T, data []byte, kv bool, cut uint16) {
		format := FormatNumeric
		if kv {
			format = FormatKV
		}
		mf := &memFile{data: data}
		blk, err := Decode(mf, "/fz", int64(len(data)), 0, int64(len(data)), format)
		want, wantErr := referenceDecode(data, format)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("decoder accepted %q, reference rejects: %v", data, wantErr)
			}
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decode error %v does not wrap ErrBadRecord", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoder rejected %q, reference accepts: %v", data, err)
		}
		if blk.NumRecords() != want.Len() {
			t.Fatalf("%d records, reference %d", blk.NumRecords(), want.Len())
		}
		var cols Cols
		blk.AppendAll(&cols)
		for i := 0; i < want.Len(); i++ {
			if math.Float64bits(cols.Vals[i]) != math.Float64bits(want.Vals[i]) {
				t.Fatalf("record %d: value %x vs reference %x", i, math.Float64bits(cols.Vals[i]), math.Float64bits(want.Vals[i]))
			}
			if format == FormatKV && cols.Keys[i] != want.Keys[i] {
				t.Fatalf("record %d: key %q vs reference %q", i, cols.Keys[i], want.Keys[i])
			}
		}
		// Recycled storage is dirty: building into it must give the
		// block fresh storage does.
		checkDirtyDecode(t, data, format)

		// Append replay: decode a record-aligned prefix, append the rest
		// plus one more record, and the cached block must replay bit for
		// bit (the dfs append contract: the old content ends in '\n', so
		// no record spans the old EOF).
		pre := int(cut) % (len(data) + 1)
		if pre == 0 || data[pre-1] != '\n' {
			return
		}
		prefix := append([]byte(nil), data[:pre]...)
		pf := &memFile{data: prefix}
		c := NewCache(0)
		key := BlockKey{Path: "/fz", Version: 1, Offset: 0, Length: int64(pre), Format: format}
		before, err := c.Load(pf, int64(pre), key)
		if err != nil {
			return // a bad record inside the prefix: nothing to replay
		}
		pf.data = append(pf.data, data[pre:]...)
		pf.data = append(pf.data, "42\n"...)
		if kv {
			pf.data = append(pf.data, "k\t42\n"...)
		}
		after, err := c.Load(pf, int64(pre), key)
		if err != nil || after != before {
			t.Fatalf("cached block did not replay after append: %v", err)
		}
		fresh, err := Decode(pf, "/fz", int64(pre), 0, int64(pre), format)
		if err != nil {
			t.Fatalf("re-decode of stable prefix failed: %v", err)
		}
		if fresh.NumRecords() != before.NumRecords() {
			t.Fatalf("prefix re-decode: %d records vs %d", fresh.NumRecords(), before.NumRecords())
		}
		for i := 0; i < fresh.NumRecords(); i++ {
			if fresh.Start(i) != before.Start(i) ||
				math.Float64bits(fresh.vals[i]) != math.Float64bits(before.vals[i]) ||
				kv && fresh.dict[fresh.keys[i]] != before.dict[before.keys[i]] {
				t.Fatalf("record %d drifted across append", i)
			}
		}
	})
}
