package colseg_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/colscan"
	"repro/internal/colseg"
)

// memStore is an in-memory colseg.Store: path → sidecar bytes.
type memStore map[string][]byte

func (m memStore) SidecarStat(path string) (int64, bool) {
	sc, ok := m[path]
	return int64(len(sc)), ok
}

func (m memStore) ViewSidecarAt(path string, off, size int64) ([]byte, error) {
	sc, ok := m[path]
	if !ok {
		return nil, errors.New("memStore: no sidecar")
	}
	if off < 0 || off >= int64(len(sc)) {
		return nil, nil
	}
	end := min(off+size, int64(len(sc)))
	return sc[off:end:end], nil
}

// byteFile adapts a byte slice to colscan.ReaderAt for the text-decode
// oracle.
type byteFile []byte

func (b byteFile) ReadAt(_ string, off int64, p []byte) (int, error) {
	if off < 0 || off >= int64(len(b)) {
		return 0, errors.New("byteFile: offset out of range")
	}
	return copy(p, b[off:]), nil
}

// chunkGeom tiles each append segment at chunkSize — the exact geometry
// dfs.Splits emits and the sidecar footer is keyed by.
func chunkGeom(segments []int64, size, chunkSize int64) [][2]int64 {
	var out [][2]int64
	for si, segStart := range segments {
		segEnd := size
		if si+1 < len(segments) {
			segEnd = segments[si+1]
		}
		for off := segStart; off < segEnd; off += chunkSize {
			end := off + chunkSize
			if end > segEnd {
				end = segEnd
			}
			out = append(out, [2]int64{off, end - off})
		}
	}
	return out
}

// diffBlocks compares two decoded blocks record by record, values bit
// for bit; "" means identical.
func diffBlocks(got, want *colscan.Block) string {
	if got.NumRecords() != want.NumRecords() {
		return fmt.Sprintf("%d records, want %d", got.NumRecords(), want.NumRecords())
	}
	for i := 0; i < want.NumRecords(); i++ {
		if got.Start(i) != want.Start(i) {
			return fmt.Sprintf("record %d: start %d, want %d", i, got.Start(i), want.Start(i))
		}
		if math.Float64bits(got.Value(i)) != math.Float64bits(want.Value(i)) {
			return fmt.Sprintf("record %d: value bits %x, want %x", i,
				math.Float64bits(got.Value(i)), math.Float64bits(want.Value(i)))
		}
		if got.Key(i) != want.Key(i) {
			return fmt.Sprintf("record %d: key %q, want %q", i, got.Key(i), want.Key(i))
		}
		if got.RecLen(i) != want.RecLen(i) {
			return fmt.Sprintf("record %d: reclen %d, want %d", i, got.RecLen(i), want.RecLen(i))
		}
	}
	return ""
}

// checkRoundTrip builds a sidecar over data (single segment), loads
// every chunk through a Reader and compares each block against a text
// decode of the same split.
func checkRoundTrip(t *testing.T, f colscan.Format, data []byte, chunkSize int64) {
	t.Helper()
	const version = 3
	sc, err := colseg.Build(f, version, data, []int64{0}, chunkSize)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	info, err := colseg.Inspect(sc)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	geom := chunkGeom([]int64{0}, int64(len(data)), chunkSize)
	if info.Version != version || info.Cover != int64(len(data)) ||
		info.Format != f || info.Chunks != len(geom) {
		t.Fatalf("Inspect = %+v, want version %d cover %d format %d chunks %d",
			info, version, len(data), f, len(geom))
	}
	rd := colseg.NewReader(memStore{"/f": sc})
	for _, g := range geom {
		key := colscan.BlockKey{Path: "/f", Version: version, Offset: g[0], Length: g[1], Format: f}
		blk, ok, err := rd.LoadColumns(key)
		if err != nil || !ok {
			t.Fatalf("LoadColumns [%d,+%d): ok=%v err=%v", g[0], g[1], ok, err)
		}
		want, err := colscan.Decode(byteFile(data), "/f", int64(len(data)), g[0], g[1], f)
		if err != nil {
			t.Fatalf("text Decode [%d,+%d): %v", g[0], g[1], err)
		}
		if d := diffBlocks(blk, want); d != "" {
			t.Fatalf("chunk [%d,+%d): %s", g[0], g[1], d)
		}
	}
}

func numericData(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		// Vary the rendering so parsing (not just byte copying) is
		// exercised: plain ints, decimals, exponents, signs.
		switch i % 4 {
		case 0:
			fmt.Fprintf(&buf, "%d\n", i*7-n)
		case 1:
			fmt.Fprintf(&buf, "%0.6f\n", float64(i)/7)
		case 2:
			fmt.Fprintf(&buf, "%.3e\n", float64(i*i)+0.5)
		default:
			fmt.Fprintf(&buf, " -%d.25 \n", i)
		}
	}
	return buf.Bytes()
}

func kvData(n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "host-%d\t%0.4f\n", i%7, float64((i*i)%997)/3)
	}
	return buf.Bytes()
}

// scanShapes returns n records in each of the end-to-end benchmark's
// shapes: 19-byte numeric lines and 16-byte "g<i%8>\t<value>" lines.
func scanShapes(n int) (numeric, kv []byte) {
	for i := 0; i < n; i++ {
		v := float64(i*7919%n) / 1000
		numeric = fmt.Appendf(numeric, "%018.9e\n", v)
		kv = fmt.Appendf(kv, "g%d\t%012.6f\n", i%8, v)
	}
	return numeric, kv
}

func TestRoundTripNumeric(t *testing.T) {
	data := numericData(400)
	for _, cs := range []int64{64, 257, 4096, int64(len(data)) + 10} {
		checkRoundTrip(t, colscan.FormatNumeric, data, cs)
	}
	// Unterminated final record.
	checkRoundTrip(t, colscan.FormatNumeric, []byte("1\n2\n3.5"), 4)
}

func TestRoundTripKV(t *testing.T) {
	data := kvData(400)
	for _, cs := range []int64{64, 257, 4096} {
		checkRoundTrip(t, colscan.FormatKV, data, cs)
	}
	// Empty value keys and a key-only dictionary of one entry.
	checkRoundTrip(t, colscan.FormatKV, []byte("k\t1\nk\t2\nk\t3\n"), 5)
}

// TestExtendByteStable pins the append contract: extending a prefix
// sidecar with the appended segment yields byte-for-byte the sidecar a
// full Build over both segments produces — pre-append chunks never move.
func TestExtendByteStable(t *testing.T) {
	const version, cs = 9, 128
	data := numericData(300)
	// Cut at a record boundary past the midpoint, like dfs appends do.
	cut := int64(bytes.IndexByte(data[len(data)/2:], '\n')+len(data)/2) + 1
	whole, err := colseg.Build(colscan.FormatNumeric, version, data, []int64{0, cut}, cs)
	if err != nil {
		t.Fatal(err)
	}
	part, err := colseg.Build(colscan.FormatNumeric, version, data[:cut], []int64{0}, cs)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := colseg.Extend(part, version, data[cut:], cut, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ext, whole) {
		t.Fatalf("Extend diverged from whole-file Build (%d vs %d bytes)", len(ext), len(whole))
	}
	// The prefix sidecar's chunk region survives verbatim inside the
	// extended one (only the header's cover field and the footer moved).
	pinfo, err := colseg.Inspect(part)
	if err != nil {
		t.Fatal(err)
	}
	chunkRegion := part[25 : len(part)-12-36*pinfo.Chunks] // header / entries+tail stripped
	if !bytes.Contains(ext, chunkRegion) {
		t.Fatal("pre-append chunk bytes were rewritten by Extend")
	}
}

func TestExtendRejectsMismatch(t *testing.T) {
	data := []byte("1\n2\n3\n4\n5\n6\n")
	sc, err := colseg.Build(colscan.FormatNumeric, 1, data, []int64{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := colseg.Extend(sc, 2, []byte("7\n"), int64(len(data)), 4); err == nil {
		t.Fatal("Extend accepted a generation mismatch")
	}
	if _, err := colseg.Extend(sc, 1, []byte("7\n"), int64(len(data))+3, 4); err == nil {
		t.Fatal("Extend accepted a coverage gap")
	}
}

func TestBuildRejectsBadRecords(t *testing.T) {
	cases := []struct {
		f    colscan.Format
		data string
	}{
		{colscan.FormatNumeric, "1\nNaN\n2\n"},
		{colscan.FormatNumeric, "1\n+Inf\n"},
		{colscan.FormatNumeric, "1\n\n2\n"},
		{colscan.FormatNumeric, "1\nnot a number\n"},
		{colscan.FormatKV, "k\t1\nno-tab-here\n"},
		{colscan.FormatKV, "k\tNaN\n"},
	}
	for _, c := range cases {
		if _, err := colseg.Build(c.f, 1, []byte(c.data), []int64{0}, 4); !errors.Is(err, colscan.ErrBadRecord) {
			t.Errorf("Build(%q) err = %v, want ErrBadRecord", c.data, err)
		}
	}
}

func TestBuildRejectsUnalignedSegment(t *testing.T) {
	data := []byte("11\n22\n33\n")
	if _, err := colseg.Build(colscan.FormatNumeric, 1, data, []int64{0, 4}, 4); err == nil {
		t.Fatal("Build accepted a segment boundary mid-record")
	}
	if _, err := colseg.Build(colscan.FormatNumeric, 1, data, []int64{3}, 4); err == nil {
		t.Fatal("Build accepted a segment list not starting at 0")
	}
}

// loadFirst asks the reader for the first chunk of the given sidecar
// bytes under the given key fields.
func loadFirst(sc []byte, version int64, f colscan.Format, chunkLen int64) (*colscan.Block, bool, error) {
	rd := colseg.NewReader(memStore{"/f": sc})
	return rd.LoadColumns(colscan.BlockKey{Path: "/f", Version: version, Offset: 0, Length: chunkLen, Format: f})
}

func TestReaderCorruption(t *testing.T) {
	data := numericData(100)
	sc, err := colseg.Build(colscan.FormatNumeric, 5, data, []int64{0}, 128)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("payload bit flip", func(t *testing.T) {
		bad := append([]byte(nil), sc...)
		bad[30] ^= 0x40 // inside the first chunk payload
		_, ok, err := loadFirst(bad, 5, colscan.FormatNumeric, 128)
		if ok || !errors.Is(err, colseg.ErrCorrupt) {
			t.Fatalf("ok=%v err=%v, want ErrCorrupt", ok, err)
		}
	})
	t.Run("truncated footer", func(t *testing.T) {
		for _, cut := range []int{1, 12, 40} {
			bad := sc[:len(sc)-cut]
			_, ok, err := loadFirst(bad, 5, colscan.FormatNumeric, 128)
			if ok || !errors.Is(err, colseg.ErrCorrupt) {
				t.Fatalf("cut %d: ok=%v err=%v, want ErrCorrupt", cut, ok, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), sc...)
		bad[0] = 'X'
		_, ok, err := loadFirst(bad, 5, colscan.FormatNumeric, 128)
		if ok || !errors.Is(err, colseg.ErrCorrupt) {
			t.Fatalf("ok=%v err=%v, want ErrCorrupt", ok, err)
		}
	})
}

func TestReaderCleanMisses(t *testing.T) {
	data := numericData(100)
	sc, err := colseg.Build(colscan.FormatNumeric, 5, data, []int64{0}, 128)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, blk *colscan.Block, ok bool, err error) {
		t.Helper()
		if blk != nil || ok || err != nil {
			t.Fatalf("%s: got (%v, %v, %v), want clean miss", name, blk, ok, err)
		}
	}
	blk, ok, err := loadFirst(sc, 6, colscan.FormatNumeric, 128)
	check("stale generation", blk, ok, err)
	blk, ok, err = loadFirst(sc, 5, colscan.FormatKV, 128)
	check("format mismatch", blk, ok, err)
	blk, ok, err = loadFirst(sc, 5, colscan.FormatNumeric, 999) // no such chunk geometry
	check("uncovered split", blk, ok, err)
	rd := colseg.NewReader(memStore{})
	blk, ok, err = rd.LoadColumns(colscan.BlockKey{Path: "/f", Version: 5, Offset: 0, Length: 128, Format: colscan.FormatNumeric})
	check("no sidecar", blk, ok, err)
}

// TestColdLoadAllocatesTheBlock pins that a cold sidecar load touches
// its chunk once: loading every split of a file allocates the blocks it
// returns — at most 1.1× their SizeBytes — and nothing else of their
// size. A payload-sized read buffer or a second copy of a column would
// be 1.4× and up. scanShapes' 64 KiB chunks give columns the allocator
// holds near their size.
func TestColdLoadAllocatesTheBlock(t *testing.T) {
	const version, chunkSize = 2, 64 << 10
	numeric, kv := scanShapes(100_000)
	for _, c := range []struct {
		name string
		f    colscan.Format
		data []byte
	}{
		{"numeric", colscan.FormatNumeric, numeric},
		{"kv", colscan.FormatKV, kv},
	} {
		sc, err := colseg.Build(c.f, version, c.data, []int64{0}, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		rd := colseg.NewReader(memStore{"/f": sc})
		geom := chunkGeom([]int64{0}, int64(len(c.data)), chunkSize)
		loadAll := func() (blockBytes int64) {
			for _, g := range geom {
				blk, ok, err := rd.LoadColumns(colscan.BlockKey{Path: "/f", Version: version, Offset: g[0], Length: g[1], Format: c.f})
				if err != nil || !ok {
					t.Fatalf("%s: LoadColumns [%d,+%d): ok=%v err=%v", c.name, g[0], g[1], ok, err)
				}
				blockBytes += blk.SizeBytes()
			}
			return blockBytes
		}
		loadAll() // parses the footer index, which the reader keeps
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		blockBytes := loadAll()
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: %d splits allocate %d B for blocks of %d B", c.name, len(geom), got, blockBytes)
		if got > blockBytes*11/10 {
			t.Errorf("%s: a cold load of %d splits allocates %d B for blocks of %d B (limit 1.1×)", c.name, len(geom), got, blockBytes)
		}
	}
}

// BenchmarkColdLoad prices a cold read of every 64 KiB split of 200 k
// numeric records two ways: from the sidecar (a CRC pass over the stored
// payload and one converting pass per column) and as text
// (colscan.Decode parsing every record). The sidecar read is meant to
// run at 3× or more the text decode's ns/record.
func BenchmarkColdLoad(b *testing.B) {
	const version, chunkSize = 2, 64 << 10
	numeric, _ := scanShapes(200_000)
	sc, err := colseg.Build(colscan.FormatNumeric, version, numeric, []int64{0}, chunkSize)
	if err != nil {
		b.Fatal(err)
	}
	geom := chunkGeom([]int64{0}, int64(len(numeric)), chunkSize)
	rd := colseg.NewReader(memStore{"/f": sc})
	for _, c := range []struct {
		name string
		load func(g [2]int64) (*colscan.Block, error)
	}{
		{"sidecar", func(g [2]int64) (*colscan.Block, error) {
			blk, ok, err := rd.LoadColumns(colscan.BlockKey{
				Path: "/f", Version: version, Offset: g[0], Length: g[1], Format: colscan.FormatNumeric})
			if err == nil && !ok {
				err = errors.New("sidecar miss")
			}
			return blk, err
		}},
		{"text", func(g [2]int64) (*colscan.Block, error) {
			return colscan.Decode(byteFile(numeric), "/f", int64(len(numeric)), g[0], g[1], colscan.FormatNumeric)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			recs := 0
			for i := 0; i < b.N; i++ {
				for _, g := range geom {
					blk, err := c.load(g)
					if err != nil {
						b.Fatal(err)
					}
					recs += blk.NumRecords()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/record")
		})
	}
}

func TestInspectRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, []byte("short"), bytes.Repeat([]byte{0xAB}, 200)} {
		if _, err := colseg.Inspect(b); !errors.Is(err, colseg.ErrCorrupt) {
			t.Errorf("Inspect(%d garbage bytes) err = %v, want ErrCorrupt", len(b), err)
		}
	}
}

// TestReaderConcurrentLoads shares one Reader — its index cache, and
// the stored bytes every load now views in place — between concurrent
// loaders of chunks of different sizes, clean and corrupt: every clean
// load must equal the text decode of its split, every corrupt one must
// fail its checksum, and under -race none may write what another reads.
func TestReaderConcurrentLoads(t *testing.T) {
	const version, chunkSize = 4, 512
	data := kvData(400)
	sc, err := colseg.Build(colscan.FormatKV, version, data, []int64{0}, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), sc...)
	bad[30] ^= 0x40 // inside the first chunk payload
	geom := chunkGeom([]int64{0}, int64(len(data)), chunkSize)
	want := make([]*colscan.Block, len(geom))
	for i, g := range geom {
		if want[i], err = colscan.Decode(byteFile(data), "/f", int64(len(data)), g[0], g[1], colscan.FormatKV); err != nil {
			t.Fatal(err)
		}
	}
	rd := colseg.NewReader(memStore{"/f": sc, "/bad": bad})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, g := range geom {
					key := colscan.BlockKey{Path: "/f", Version: version, Offset: g[0], Length: g[1], Format: colscan.FormatKV}
					blk, ok, err := rd.LoadColumns(key)
					if err != nil || !ok {
						t.Errorf("LoadColumns [%d,+%d): ok=%v err=%v", g[0], g[1], ok, err)
						return
					}
					if d := diffBlocks(blk, want[i]); d != "" {
						t.Errorf("chunk [%d,+%d): %s", g[0], g[1], d)
						return
					}
				}
				key := colscan.BlockKey{Path: "/bad", Version: version, Offset: geom[0][0], Length: geom[0][1], Format: colscan.FormatKV}
				if _, ok, err := rd.LoadColumns(key); ok || !errors.Is(err, colseg.ErrCorrupt) {
					t.Errorf("corrupt chunk: ok=%v err=%v, want ErrCorrupt", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
