package colseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/colscan"
)

// oneSidecar is a Store holding a single sidecar at "/f".
type oneSidecar []byte

func (s oneSidecar) SidecarStat(string) (int64, bool) { return int64(len(s)), true }

func (s oneSidecar) ViewSidecarAt(_ string, off, size int64) ([]byte, error) {
	if off < 0 || off >= int64(len(s)) {
		return nil, nil
	}
	end := min(off+size, int64(len(s)))
	return s[off:end:end], nil
}

// textFile is the data file behind the text-decode fallback.
type textFile []byte

func (f textFile) ReadAt(_ string, off int64, p []byte) (int, error) {
	if off < 0 || off >= int64(len(f)) {
		return 0, errors.New("textFile: offset out of range")
	}
	return copy(p, f[off:]), nil
}

// TestForgedChunksAreCorrupt is the net under the fused conversion: a
// chunk whose bytes break a block invariant but whose footer CRC matches
// them — what a buggy or hostile writer produces, and what no byte flip
// can, since the checksum catches those first. Every forgery must come
// back ErrCorrupt from LoadColumns and, through the scan cache, be
// counted, reported to the hook once, and answered by the text decode.
func TestForgedChunksAreCorrupt(t *testing.T) {
	const version, chunkSize = 7, 96
	var data []byte
	for i := 0; i < 24; i++ {
		data = fmt.Appendf(data, "host-%d\t%d.5\n", i%3, i)
	}
	good, err := Build(colscan.FormatKV, version, data, []int64{0}, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	count, footerStart, err := parseTail(good[len(good)-tailSize:], int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := parseEntries(good[footerStart:len(good)-tailSize], count, footerStart)
	if err != nil {
		t.Fatal(err)
	}
	// The second chunk: its split offset is not 0, so the starts' base
	// arithmetic is in play.
	const ci = 1
	e := entries[ci]
	n := int(binary.LittleEndian.Uint32(good[e.pos:]))
	if n < 3 {
		t.Fatalf("chunk %d holds %d records, want at least 3", ci, n)
	}
	// Field offsets inside the payload (see the package comment).
	const lastEndAt, startsAt = 4, 12
	valsAt := startsAt + 4*n
	keysAt := valsAt + 8*n
	nDictAt := keysAt + 4*n
	u32 := func(p []byte, at int) uint32 { return binary.LittleEndian.Uint32(p[at:]) }
	put32 := func(p []byte, at int, v uint32) { binary.LittleEndian.PutUint32(p[at:], v) }
	put64 := func(p []byte, at int, v uint64) { binary.LittleEndian.PutUint64(p[at:], v) }

	key := colscan.BlockKey{Path: "/f", Version: version, Offset: e.offset, Length: e.length, Format: colscan.FormatKV}
	want, err := colscan.Decode(textFile(data), "/f", int64(len(data)), e.offset, e.length, colscan.FormatKV)
	if err != nil {
		t.Fatal(err)
	}
	if blk, ok, err := NewReader(oneSidecar(good)).LoadColumns(key); err != nil || !ok || !reflect.DeepEqual(blk, want) {
		t.Fatalf("the unforged chunk: ok=%v err=%v, equal to the text decode: %v", ok, err, reflect.DeepEqual(blk, want))
	}

	for _, tc := range []struct {
		name  string
		forge func(p []byte)
	}{
		{"two starts swapped", func(p []byte) {
			a, b := u32(p, startsAt+4), u32(p, startsAt+8)
			put32(p, startsAt+4, b)
			put32(p, startsAt+8, a)
		}},
		{"two starts equal", func(p []byte) { put32(p, startsAt+8, u32(p, startsAt+4)) }},
		{"first two starts equal", func(p []byte) { put32(p, startsAt+4, u32(p, startsAt)) }},
		{"NaN value", func(p []byte) { put64(p, valsAt+8, math.Float64bits(math.NaN())) }},
		{"+Inf value", func(p []byte) { put64(p, valsAt, math.Float64bits(math.Inf(1))) }},
		{"-Inf value", func(p []byte) { put64(p, valsAt+8*(n-1), math.Float64bits(math.Inf(-1))) }},
		{"key id = len(dict)", func(p []byte) { put32(p, keysAt+4, u32(p, nDictAt)) }},
		{"lastEnd below the last start", func(p []byte) {
			put64(p, lastEndAt, uint64(e.offset)+uint64(u32(p, startsAt+4*(n-1)))-1)
		}},
		{"dictionary count past the payload", func(p []byte) { put32(p, nDictAt, u32(p, nDictAt)+1) }},
		{"dictionary count 2^32-1", func(p []byte) { put32(p, nDictAt, math.MaxUint32) }},
		{"dictionary entry length past the payload", func(p []byte) { put32(p, nDictAt+4, math.MaxUint32) }},
		{"record count past the payload", func(p []byte) { put32(p, 0, math.MaxUint32) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := append([]byte(nil), good...)
			payload := sc[e.pos : e.pos+e.size]
			tc.forge(payload)
			put32(sc, int(footerStart)+ci*entrySize+32, checksum(payload))
			if _, err := Inspect(sc); err != nil {
				t.Fatalf("the forgery does not pass Inspect, so it tests the checksum, not the decoder: %v", err)
			}

			rd := NewReader(oneSidecar(sc))
			if blk, ok, err := rd.LoadColumns(key); blk != nil || ok || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadColumns = (%v, %v, %v), want ErrCorrupt", blk, ok, err)
			}

			cache := colscan.NewCache(0)
			cache.SetStore(rd)
			hooked := 0
			cache.OnSidecarError(func(k colscan.BlockKey, err error) {
				hooked++
				if k != key || !errors.Is(err, ErrCorrupt) {
					t.Errorf("hook saw (%+v, %v), want the forged chunk's key and ErrCorrupt", k, err)
				}
			})
			blk, err := cache.Load(textFile(data), int64(len(data)), key)
			if err != nil {
				t.Fatalf("Load did not fall back to text: %v", err)
			}
			if !sameRecords(blk, want) {
				t.Fatal("the fallback block differs from the text decode")
			}
			if st := cache.Stats(); st.SidecarErrors != 1 || st.SidecarReads != 0 || hooked != 1 {
				t.Fatalf("%d sidecar errors, %d sidecar reads, hook called %d times; want 1, 0, 1", st.SidecarErrors, st.SidecarReads, hooked)
			}
		})
	}
}

// sameRecords reports whether a and b hold the same records, read
// through every accessor: starts, lengths, values bit for bit, key ids
// and the dictionary. A block the scan cache handed out also carries
// the cache's hold on it, which reflect.DeepEqual would compare too.
func sameRecords(a, b *colscan.Block) bool {
	if a.NumRecords() != b.NumRecords() || !reflect.DeepEqual(a.Dict(), b.Dict()) || !reflect.DeepEqual(a.KeyIDs(), b.KeyIDs()) {
		return false
	}
	for i := range a.NumRecords() {
		if a.Start(i) != b.Start(i) || a.RecLen(i) != b.RecLen(i) || math.Float64bits(a.Value(i)) != math.Float64bits(b.Value(i)) || a.Key(i) != b.Key(i) {
			return false
		}
	}
	return true
}
