package colseg_test

import (
	"bytes"
	"testing"

	"repro/internal/colscan"
	"repro/internal/colseg"
)

// FuzzColSegRoundTrip drives the sidecar encoder/reader against the
// text decoder on arbitrary bytes:
//
//   - Build and Decode agree on the accept/reject verdict: a sidecar
//     exists exactly when every split of the file text-decodes.
//   - When it exists, every chunk the reader serves is record-for-record
//     identical (starts, value bits, keys, lengths) to a text Decode of
//     the same split.
//   - Splitting the file at any record boundary and Extending the prefix
//     sidecar with the rest reproduces the two-segment Build byte for
//     byte — and so does splicing ExtendTail's three sections around the
//     prefix's chunk payloads, which is what dfs does on an append: the
//     ingest path can never drift from a fresh ingest.
func FuzzColSegRoundTrip(f *testing.F) {
	f.Add([]byte("1\n2.5\n-3e2\n"), false, uint16(4))
	f.Add([]byte("a\t1\nbb\t2\na\t3.5\n"), true, uint16(4))
	f.Add([]byte("k\tNaN\n"), true, uint16(0))
	f.Add([]byte(" 7 \n+Inf\n"), false, uint16(2))
	f.Add([]byte("1"), false, uint16(1))
	f.Add([]byte("\n\n"), false, uint16(1))
	f.Add([]byte("0x1p2\n1_0\n9007199254740993\n"), false, uint16(6))
	f.Add([]byte("g0\t1\ng1\t2\ng0\t3\ng2\t4\n"), true, uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, kv bool, csRaw uint16) {
		cs := int64(csRaw)%512 + 1
		const version = 7
		format := colscan.FormatNumeric
		if kv {
			format = colscan.FormatKV
		}
		geom := chunkGeom([]int64{0}, int64(len(data)), cs)
		sc, err := colseg.Build(format, version, data, []int64{0}, cs)
		if err != nil {
			// Build rejected the data; the bad record starts inside
			// exactly one split, whose text decode must reject too.
			for _, g := range geom {
				if _, derr := colscan.Decode(byteFile(data), "/fz", int64(len(data)), g[0], g[1], format); derr != nil {
					return
				}
			}
			t.Fatalf("Build rejected data every split text-decodes: %v", err)
		}
		rd := colseg.NewReader(memStore{"/fz": sc})
		for _, g := range geom {
			key := colscan.BlockKey{Path: "/fz", Version: version, Offset: g[0], Length: g[1], Format: format}
			blk, ok, lerr := rd.LoadColumns(key)
			if lerr != nil || !ok {
				t.Fatalf("chunk [%d,+%d): ok=%v err=%v", g[0], g[1], ok, lerr)
			}
			want, derr := colscan.Decode(byteFile(data), "/fz", int64(len(data)), g[0], g[1], format)
			if derr != nil {
				t.Fatalf("sidecar built but split [%d,+%d) fails text decode: %v", g[0], g[1], derr)
			}
			if d := diffBlocks(blk, want); d != "" {
				t.Fatalf("chunk [%d,+%d): %s", g[0], g[1], d)
			}
		}

		// Extend identity: cut at the first record boundary past the
		// midpoint (the dfs record-aligned append invariant) and check
		// prefix-Build + Extend == two-segment Build, byte for byte.
		nl := bytes.IndexByte(data[len(data)/2:], '\n')
		if nl < 0 {
			return
		}
		cut := int64(nl+len(data)/2) + 1
		if cut <= 0 || cut >= int64(len(data)) {
			return
		}
		whole, err := colseg.Build(format, version, data, []int64{0, cut}, cs)
		if err != nil {
			t.Fatalf("two-segment Build failed on accepted data: %v", err)
		}
		part, err := colseg.Build(format, version, data[:cut], []int64{0}, cs)
		if err != nil {
			t.Fatalf("prefix Build failed on accepted data: %v", err)
		}
		ext, err := colseg.Extend(part, version, data[cut:], cut, cs)
		if err != nil {
			t.Fatalf("Extend failed on accepted data: %v", err)
		}
		if !bytes.Equal(ext, whole) {
			t.Fatalf("Extend diverged from two-segment Build (%d vs %d bytes)", len(ext), len(whole))
		}
		header, chunks, footer, err := colseg.Split(part)
		if err != nil {
			t.Fatalf("Split failed on a fresh Build: %v", err)
		}
		tail, err := colseg.ExtendTail(header, footer, int64(len(header)+len(chunks)), version, data[cut:], cut, cs)
		if err != nil {
			t.Fatalf("ExtendTail failed on accepted data: %v", err)
		}
		if spliced := bytes.Join([][]byte{tail.Header, chunks, tail.Chunks, tail.Footer}, nil); !bytes.Equal(spliced, whole) {
			t.Fatalf("ExtendTail's sections diverged from two-segment Build (%d vs %d bytes)", len(spliced), len(whole))
		}
		for _, sc := range [][]byte{sc, whole, part, ext} {
			if cap(sc) != len(sc) {
				t.Fatalf("a %d-byte sidecar came in a %d-byte slice", len(sc), cap(sc))
			}
		}
	})
}
