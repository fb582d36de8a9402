package dfs

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/simcost"
)

// FuzzLineScanCost holds LineScanCost to the reader it models: over
// generated files — short records, a few longer than a 64 KiB fill, with
// or without a final newline, under blocks smaller and larger than a
// fill — every split's closed-form charge equals the simcost delta of
// draining its default-chunk LineReader, splits that lie inside one
// record included.
func FuzzLineScanCost(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(0), uint32(300), uint8(0), true)
	f.Add(uint64(2), uint8(12), uint8(3), uint32(1000), uint8(1), false)
	f.Add(uint64(3), uint8(6), uint8(1), uint32(70_000), uint8(2), true)
	f.Add(uint64(4), uint8(1), uint8(1), uint32(9), uint8(3), false)
	f.Add(uint64(5), uint8(0), uint8(0), uint32(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, records, longEvery uint8, splitSel uint32, blockSel uint8, terminated bool) {
		rng := rand.New(rand.NewPCG(seed, 0x11a7e5ca))
		var data []byte
		longs := 0
		for i := 0; i < int(records%48); i++ {
			n := rng.IntN(40)
			if longEvery > 0 && i%int(longEvery) == 0 && longs < 3 {
				n = lineChunk + rng.IntN(2*lineChunk)
				longs++
			}
			data = append(data, bytes.Repeat([]byte{'x'}, n)...)
			data = append(data, '\n')
		}
		if !terminated && len(data) > 0 {
			data = data[:len(data)-1]
		}
		m := &simcost.Metrics{}
		fs := New(Config{BlockSize: 1 << (12 + blockSel%9), Seed: seed, Metrics: m, DisableSidecars: true})
		const path = "/fuzz/scan"
		if err := fs.WriteFile(path, data); err != nil {
			t.Fatal(err)
		}
		size := int64(len(data))
		// At most 64 splits a file: each drained reader fills 64 KiB.
		splitSize := max(int64(splitSel)%(1<<18)+1, size/64+1)
		splits, err := fs.Splits(path, splitSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range splits {
			before := m.Snapshot()
			rd, err := fs.NewLineReader(sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			for rd.Next() {
			}
			if err := rd.Err(); err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot().Sub(before)
			bytesRead, seeks := LineScanCost(sp, size, scanThrough(data, sp))
			if got.BytesRead != bytesRead || got.DiskSeeks != seeks {
				t.Fatalf("split %v of %d bytes: reader charged %d bytes / %d seeks, LineScanCost %d / %d",
					sp, size, got.BytesRead, got.DiskSeeks, bytesRead, seeks)
			}
		}
	})
}

// scanThrough is LineScanCost's through, found in the file's bytes: one
// past the newline ending the split's last owned record (or the partial
// line it skips), or the file's size where that line has no newline.
func scanThrough(data []byte, sp Split) int64 {
	size := int64(len(data))
	lineEnd := func(from int64) int64 {
		if i := bytes.IndexByte(data[from:], '\n'); i >= 0 {
			return from + int64(i) + 1
		}
		return size
	}
	pos := sp.Offset
	if pos > 0 {
		pos = lineEnd(pos - 1)
	}
	through := pos
	for pos < sp.End() && pos < size {
		pos = lineEnd(pos)
		through = pos
	}
	return through
}
