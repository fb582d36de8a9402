package colscan

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// memFile is the stdlib-only ReaderAt stub the decoder tests run
// against (the real dfs satisfies the same interface structurally).
type memFile struct{ data []byte }

func (m *memFile) ReadAt(path string, off int64, p []byte) (int, error) {
	if off < 0 || off > int64(len(m.data)) {
		return 0, fmt.Errorf("memFile: offset %d outside %d bytes", off, len(m.data))
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("memFile: short read at %d", off)
	}
	return n, nil
}

// TestParseValueMatchesStrconv pins the fast path to strconv.ParseFloat
// bit for bit: for every input, either both parse to the identical
// float64 or both reject (non-finite results reject on our side).
func TestParseValueMatchesStrconv(t *testing.T) {
	inputs := []string{
		"0", "1", "-1", "+1", "1.5", "-2.25", "0.1", "3.14159265358979",
		" 7 ", "\t8\r\n", "1e3", "1E-3", "-4.5e+2", "9e22", "1e23", "1e-22",
		"1e-23", "123456789.123456789", "9007199254740991", "9007199254740993",
		"12345678901234567890123", "0.000000000000000000001",
		"1e308", "1e309", "-1e309", "0x1p3", "0x1.8p1", "1_000", ".5", "5.",
		"", " ", "abc", "1.2.3", "1e", "1e+", "--1", "NaN", "nan", "+Inf",
		"-Inf", "Infinity", "1e10000", "00042", "000.125", "  -0  ",
		"184467440737095516160", "17976931348623157e292",
	}
	for _, in := range inputs {
		got, gotErr := ParseValueString(in)
		want, wantErr := strconv.ParseFloat(strings.TrimSpace(in), 64)
		reject := wantErr != nil || math.IsNaN(want) || math.IsInf(want, 0)
		if reject {
			if gotErr == nil {
				t.Errorf("ParseValue(%q) = %v, want rejection", in, got)
			} else if !errors.Is(gotErr, ErrBadRecord) {
				t.Errorf("ParseValue(%q) error %v does not wrap ErrBadRecord", in, gotErr)
			}
			continue
		}
		if gotErr != nil {
			t.Errorf("ParseValue(%q) unexpected error: %v", in, gotErr)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ParseValue(%q) = %x, strconv = %x", in, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestQuoteBounded pins the error-message satellite: a multi-MB record
// is quoted as a bounded prefix, never verbatim.
func TestQuoteBounded(t *testing.T) {
	long := strings.Repeat("x", 1<<20)
	q := Quote(long)
	if len(q) > 200 {
		t.Fatalf("Quote of 1 MiB line is %d bytes", len(q))
	}
	if !strings.Contains(q, fmt.Sprintf("%d bytes total", 1<<20)) {
		t.Fatalf("Quote lost the total length: %s", q)
	}
	if got := Quote("short"); got != strconv.Quote("short") {
		t.Fatalf("short Quote = %s", got)
	}
	_, err := ParseValueString(long)
	if err == nil || len(err.Error()) > 300 {
		t.Fatalf("parse error not bounded: %v bytes", len(err.Error()))
	}
}

// TestParseKVString pins the grouped record contract: the key is the
// byte-exact prefix before the first tab, and a missing separator is an
// ErrBadRecord.
func TestParseKVString(t *testing.T) {
	k, v, err := ParseKVString(" host 1 \t2.5")
	if err != nil || k != " host 1 " || v != 2.5 {
		t.Fatalf("ParseKVString = %q %v %v", k, v, err)
	}
	if _, _, err := ParseKVString("no separator"); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("missing tab: %v", err)
	}
	if _, _, err := ParseKVString("k\tNaN"); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("NaN value: %v", err)
	}
	// Tabs are whitespace to the value trim: the value is everything
	// after the FIRST tab.
	k, v, err = ParseKVString("k\t\t3")
	if err != nil || k != "k" || v != 3 {
		t.Fatalf("double tab = %q %v %v", k, v, err)
	}
}

// decodeWhole decodes the full file as one split.
func decodeWhole(t *testing.T, data string, f Format) *Block {
	t.Helper()
	blk, err := Decode(&memFile{data: []byte(data)}, "/f", int64(len(data)), 0, int64(len(data)), f)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return blk
}

// TestDecodeSplitSemantics pins the decoder to the dfs LineReader split
// rules: records belong to the split they START in, a non-initial split
// skips its partial first line, and the final record follows its line
// past the split end.
func TestDecodeSplitSemantics(t *testing.T) {
	data := "1\n22\n333\n4444\n55555\n"
	lines := []string{"1", "22", "333", "4444", "55555"}
	starts := []int64{0, 2, 5, 9, 14}
	fsize := int64(len(data))
	mf := &memFile{data: []byte(data)}
	// Sweep every (off, length) split of the file: the union of records
	// across a partition must be exactly the file, with no duplicates.
	for _, split := range []int64{1, 2, 3, 5, 7, fsize} {
		var got []int64
		var vals []float64
		for off := int64(0); off < fsize; off += split {
			blk, err := Decode(mf, "/f", fsize, off, split, FormatNumeric)
			if err != nil {
				t.Fatalf("split=%d off=%d: %v", split, off, err)
			}
			for i := 0; i < blk.NumRecords(); i++ {
				got = append(got, blk.Start(i))
				vals = append(vals, blk.Value(i))
			}
		}
		if len(got) != len(lines) {
			t.Fatalf("split=%d: %d records, want %d (%v)", split, len(got), len(lines), got)
		}
		for i := range got {
			want, _ := strconv.ParseFloat(lines[i], 64)
			if got[i] != starts[i] || vals[i] != want {
				t.Fatalf("split=%d rec=%d: start=%d val=%v, want %d %v", split, i, got[i], vals[i], starts[i], want)
			}
		}
	}
	// Unterminated final record is still a record.
	blk := decodeWhole(t, "1\n2", FormatNumeric)
	if blk.NumRecords() != 2 || blk.Value(1) != 2 {
		t.Fatalf("unterminated tail: %+v", blk)
	}
	if blk.RecLen(1) != 1 {
		t.Fatalf("tail RecLen = %d", blk.RecLen(1))
	}
}

// TestDecodeKVInternsKeys pins the dictionary route: repeated keys share
// one interned string.
func TestDecodeKVInternsKeys(t *testing.T) {
	blk := decodeWhole(t, "a\t1\nb\t2\na\t3\n", FormatKV)
	if blk.NumRecords() != 3 {
		t.Fatalf("records = %d", blk.NumRecords())
	}
	if len(blk.dict) != 2 {
		t.Fatalf("dict = %v", blk.dict)
	}
	if blk.Key(0) != "a" || blk.Key(1) != "b" || blk.Key(2) != "a" {
		t.Fatalf("keys = %q %q %q", blk.Key(0), blk.Key(1), blk.Key(2))
	}
	var cols Cols
	blk.AppendAll(&cols)
	if cols.Len() != 3 || cols.Keys[2] != "a" || cols.Vals[2] != 3 {
		t.Fatalf("AppendAll = %+v", cols)
	}
}

// TestDecodeRejectsBadRecords: malformed and non-finite records fail
// the whole decode with an ErrBadRecord-wrapping error naming the
// record's offset.
func TestDecodeRejectsBadRecords(t *testing.T) {
	for _, tc := range []struct {
		data string
		f    Format
	}{
		{"1\nNaN\n3\n", FormatNumeric},
		{"1\n+Inf\n3\n", FormatNumeric},
		{"1\nx\n3\n", FormatNumeric},
		{"a\t1\nb2\n", FormatKV},
		{"a\t1\nb\tNaN\n", FormatKV},
	} {
		mf := &memFile{data: []byte(tc.data)}
		_, err := Decode(mf, "/f", int64(len(tc.data)), 0, int64(len(tc.data)), tc.f)
		if !errors.Is(err, ErrBadRecord) {
			t.Errorf("Decode(%q) = %v, want ErrBadRecord", tc.data, err)
		}
	}
}

// TestFindRecord pins the binary search to the ReadLineAt ownership
// rule: offset pos belongs to the last record starting at or before it.
func TestFindRecord(t *testing.T) {
	blk := decodeWhole(t, "1\n22\n333\n", FormatNumeric) // starts 0, 2, 5
	want := []int{0, 0, 1, 1, 1, 2, 2, 2, 2}
	for pos, w := range want {
		if got := blk.FindRecord(int64(pos)); got != w {
			t.Errorf("FindRecord(%d) = %d, want %d", pos, got, w)
		}
	}
	// A block whose first record starts after pos reports -1.
	sub, err := Decode(&memFile{data: []byte("1\n22\n333\n")}, "/f", 9, 3, 6, FormatNumeric)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumRecords() != 1 || sub.Start(0) != 5 {
		t.Fatalf("sub block: %+v", sub)
	}
	if got := sub.FindRecord(3); got != -1 {
		t.Fatalf("FindRecord before first record = %d, want -1", got)
	}
}

// TestCacheSharesDecodes: one miss per key, hits after; eviction keeps
// the budget; a failed decode is not cached (a rewritten file retries).
func TestCacheSharesDecodes(t *testing.T) {
	data := "1\n2\n3\n"
	mf := &memFile{data: []byte(data)}
	c := NewCache(1 << 20)
	key := BlockKey{Path: "/f", Version: 1, Offset: 0, Length: int64(len(data)), Format: FormatNumeric}
	b1, err := c.Load(mf, int64(len(data)), key)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Load(mf, int64(len(data)), key)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("second Load decoded again")
	}
	if got, ok := c.Peek(key); !ok || got != b1 {
		t.Fatal("Peek missed a ready block")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits < 2 {
		t.Fatalf("stats = %+v", st)
	}
	// A different version is a different block.
	key2 := key
	key2.Version = 2
	b3, err := c.Load(mf, int64(len(data)), key2)
	if err != nil {
		t.Fatal(err)
	}
	if b3 == b1 {
		t.Fatal("version change did not re-decode")
	}
	// Failed decodes are not retained.
	bad := &memFile{data: []byte("x\n")}
	badKey := BlockKey{Path: "/bad", Version: 1, Offset: 0, Length: 2, Format: FormatNumeric}
	if _, err := c.Load(bad, 2, badKey); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad load: %v", err)
	}
	if _, ok := c.Peek(badKey); ok {
		t.Fatal("failed decode cached")
	}
	fixed := &memFile{data: []byte("7\n")}
	blk, err := c.Load(fixed, 2, badKey)
	if err != nil || blk.Value(0) != 7 {
		t.Fatalf("retry after failure: %v %v", blk, err)
	}
}

// TestCacheEvictsLRU: released blocks past the budget are dropped
// least recently released first, and the unheld bytes never exceed the
// budget.
func TestCacheEvictsLRU(t *testing.T) {
	line := strings.Repeat("7", 128) + "e-100\n"
	data := strings.Repeat(line, 64)
	mf := &memFile{data: []byte(data)}
	one, err := Decode(mf, "/f", int64(len(data)), 0, int64(len(data)), FormatNumeric)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(3 * one.SizeBytes())
	key := func(v int64) BlockKey {
		return BlockKey{Path: "/f", Version: v, Offset: 0, Length: int64(len(data)), Format: FormatNumeric}
	}
	withinBudget := func(when string) {
		t.Helper()
		if st := c.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("%s: cache over budget: %d > %d", when, st.Bytes, st.MaxBytes)
		}
	}
	for v := int64(1); v <= 8; v++ {
		blk, err := c.Load(mf, int64(len(data)), key(v))
		if err != nil {
			t.Fatal(err)
		}
		withinBudget(fmt.Sprintf("load %d", v))
		blk.Release()
		withinBudget(fmt.Sprintf("release %d", v))
	}
	if _, ok := c.Peek(key(1)); ok {
		t.Fatal("oldest block survived eviction")
	}
	newest, ok := c.Peek(key(8))
	if !ok {
		t.Fatal("newest block evicted")
	}
	newest.Release()
	c.InvalidatePath("/f")
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("InvalidatePath left %d bytes", got)
	}
}

// TestCachedBlockReplaysAfterAppend pins the version-keying argument:
// appends add bytes past the old EOF without touching existing offsets,
// so a block decoded before the append replays bit-identically from the
// cache after it — and matches a fresh decode of the same split.
func TestCachedBlockReplaysAfterAppend(t *testing.T) {
	base := "1.5\n2.5\n3.5\n"
	mf := &memFile{data: []byte(base)}
	c := NewCache(0)
	key := BlockKey{Path: "/f", Version: 1, Offset: 0, Length: int64(len(base)), Format: FormatNumeric}
	before, err := c.Load(mf, int64(len(base)), key)
	if err != nil {
		t.Fatal(err)
	}
	// Append (dfs.Append requires the prior content to end in a newline,
	// so no record spans the old EOF; the version stays the same).
	mf.data = append(mf.data, "4.5\n5.5\n"...)
	after, err := c.Load(mf, int64(len(base)), key)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("append invalidated an immutable block")
	}
	fresh, err := Decode(mf, "/f", int64(len(base)), 0, int64(len(base)), FormatNumeric)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.NumRecords() != before.NumRecords() {
		t.Fatalf("fresh decode: %d records, cached %d", fresh.NumRecords(), before.NumRecords())
	}
	for i := 0; i < fresh.NumRecords(); i++ {
		if fresh.Start(i) != before.Start(i) ||
			math.Float64bits(fresh.Value(i)) != math.Float64bits(before.Value(i)) {
			t.Fatalf("record %d drifted after append", i)
		}
	}
}

// TestLoadSplitNilCache: LoadSplit without a cache decodes directly.
func TestLoadSplitNilCache(t *testing.T) {
	data := "1\n2\n"
	blk, err := LoadSplit(nil, &memFile{data: []byte(data)}, "/f", 1, int64(len(data)), 0, int64(len(data)), FormatNumeric)
	if err != nil || blk.NumRecords() != 2 {
		t.Fatalf("LoadSplit(nil cache) = %v %v", blk, err)
	}
}
