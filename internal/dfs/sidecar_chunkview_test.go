package dfs

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/colscan"
	"repro/internal/colseg"
	"repro/internal/simcost"
)

// chunkRanges returns the (pos, size) of every chunk payload of a whole
// sidecar, read off its footer (colseg's layout: 36-byte entries with
// pos at +16 and size at +24, then a 4-byte count and an 8-byte magic).
func chunkRanges(t *testing.T, sc []byte) [][2]int64 {
	t.Helper()
	info, err := colseg.Inspect(sc)
	if err != nil {
		t.Fatal(err)
	}
	table := sc[len(sc)-12-36*info.Chunks:]
	out := make([][2]int64, info.Chunks)
	for i := range out {
		e := table[36*i:]
		out[i] = [2]int64{int64(binary.LittleEndian.Uint64(e[16:])), int64(binary.LittleEndian.Uint64(e[24:]))}
	}
	return out
}

// TestViewSidecarAtMatchesRead holds the view to the copying read it
// stands in for: for a file written whole and for one grown by 40
// appends of 77 KB — whose chunk payloads are packed into 256 KiB
// extents, so some straddle two — every chunk served by ViewSidecarAt
// is ReadSidecarAt's bytes at ReadSidecarAt's charge, live and through
// a snapshot pinned half way, never with capacity to append into; a
// chunk one piece holds is that piece's memory, not a copy.
func TestViewSidecarAtMatchesRead(t *testing.T) {
	metrics := &simcost.Metrics{}
	fs := New(Config{BlockSize: 128 << 10, Replication: 2, DataNodes: 3, Seed: 11, Metrics: metrics}) // one chunk per append
	if err := fs.WriteFile("/whole", kvLines(40_000, 0)); err != nil {
		t.Fatal(err)
	}
	const batch = 77 << 10 / 12 // records of 12 bytes in a 77 KB append
	if err := fs.WriteFile("/appended", kvLines(batch, 0)); err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	for i := 1; i <= 40; i++ {
		if err := fs.Append("/appended", kvLines(batch, i*batch)); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			snap = fs.Snapshot()
			defer snap.Release()
		}
	}

	charge := func(read func()) (seeks, bytes int64) {
		s0, b0 := metrics.DiskSeeks.Load(), metrics.BytesRead.Load()
		read()
		return metrics.DiskSeeks.Load() - s0, metrics.BytesRead.Load() - b0
	}
	inPlace, copied := 0, 0
	for _, tc := range []struct {
		name string
		v    View
		st   state
		path string
	}{
		{"written whole, live", fs, fs.live(), "/whole"},
		{"appended, live", fs, fs.live(), "/appended"},
		{"appended, pinned after 20 of 40 appends", snap, snap.state, "/appended"},
	} {
		whole := viewBytes(t, tc.v, tc.path)
		chunks := chunkRanges(t, whole)
		if tc.v == View(snap) && len(chunks) != 21 {
			t.Fatalf("%s: %d chunks, want the 21 the snapshot pinned", tc.name, len(chunks))
		}
		meta, _ := tc.st.file(tc.path)
		sc := meta.sidecar.Load()
		for i, c := range chunks {
			pos, size := c[0], c[1]
			var view []byte
			var verr error
			vSeeks, vBytes := charge(func() { view, verr = tc.v.ViewSidecarAt(tc.path, pos, size) })
			p := make([]byte, size)
			var n int
			var rerr error
			rSeeks, rBytes := charge(func() { n, rerr = held(tc.v).ReadSidecarAt(tc.path, pos, p) })
			if verr != nil || rerr != nil || int64(n) != size || !bytes.Equal(view, p) || !bytes.Equal(view, whole[pos:pos+size]) {
				t.Fatalf("%s chunk %d: view (%d bytes, %v) differs from read (%d bytes, %v)", tc.name, i, len(view), verr, n, rerr)
			}
			if vSeeks != 1 || vBytes != size || rSeeks != vSeeks || rBytes != vBytes {
				t.Fatalf("%s chunk %d: view charged %d seeks, %d bytes; read %d, %d; want 1, %d for both", tc.name, i, vSeeks, vBytes, rSeeks, rBytes, size)
			}
			if cap(view) != len(view) {
				t.Fatalf("%s chunk %d: view has %d bytes of capacity behind its %d", tc.name, i, cap(view)-len(view), len(view))
			}
			pc := sc.pieces[sc.pieceAt(pos)]
			if one := pos+size <= pc.off+int64(len(pc.b)); one != (&view[0] == &pc.b[pos-pc.off]) {
				t.Fatalf("%s chunk %d: held by one piece: %v, served in place: %v", tc.name, i, one, !one)
			} else if one {
				inPlace++
			} else {
				copied++
			}
		}
		// The ends: a range cut by the sidecar's end is served short,
		// one at or past it not at all and free of charge.
		end := int64(len(whole))
		if b, err := tc.v.ViewSidecarAt(tc.path, end-5, 64); err != nil || !bytes.Equal(b, whole[end-5:]) {
			t.Fatalf("%s: a view across the end = %d bytes, %v", tc.name, len(b), err)
		}
		seeks, _ := charge(func() {
			if b, err := tc.v.ViewSidecarAt(tc.path, end, 64); err != nil || b != nil {
				t.Fatalf("%s: a view at the end = %d bytes, %v", tc.name, len(b), err)
			}
		})
		if seeks != 0 {
			t.Fatalf("%s: a view at the end was charged %d seeks", tc.name, seeks)
		}
	}
	if inPlace == 0 || copied == 0 {
		t.Fatalf("%d chunks served in place, %d copied: the files exercise one branch only", inPlace, copied)
	}
}

// TestLoadedBlocksOutliveSidecarFaults is the other half of the view's
// contract: a Block loaded through a dfs-backed Reader aliases no
// stored byte, and a view a caller still holds never changes — not
// when every byte of the chunk is corrupted (copy-on-write), nor when
// the sidecar is truncated, the file rewritten, or deleted.
func TestLoadedBlocksOutliveSidecarFaults(t *testing.T) {
	fs := sidecarTestFS()
	const path = "/data"
	if err := fs.WriteFile(path, kvLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat(path)
	version, _ := fs.Version(path)
	splits, err := fs.Splits(path, 0)
	if err != nil || len(splits) < 3 {
		t.Fatalf("%d splits, %v", len(splits), err)
	}
	sp := splits[1]
	c := chunkRanges(t, readSidecar(t, fs, path))[1]

	want, err := colscan.Decode(fs, path, size, sp.Offset, sp.Length, colscan.FormatKV)
	if err != nil {
		t.Fatal(err)
	}
	key := colscan.BlockKey{Path: path, Version: version, Offset: sp.Offset, Length: sp.Length, Format: colscan.FormatKV}
	blk, ok, err := colseg.NewReader(fs).LoadColumns(key)
	if err != nil || !ok {
		t.Fatalf("LoadColumns: ok=%v err=%v", ok, err)
	}
	held, err := fs.ViewSidecarAt(path, c[0], c[1])
	if err != nil {
		t.Fatal(err)
	}
	heldWas := bytes.Clone(held)
	check := func(after string) {
		t.Helper()
		if !reflect.DeepEqual(blk, want) {
			t.Fatalf("after %s the loaded block no longer equals the text decode", after)
		}
		if !bytes.Equal(held, heldWas) {
			t.Fatalf("after %s a held view changed", after)
		}
	}
	check("the load")
	for off := c[0]; off < c[0]+c[1]; off++ {
		if !fs.CorruptSidecarByte(path, off) {
			t.Fatalf("CorruptSidecarByte(%d) found no sidecar", off)
		}
	}
	check("corrupting every byte of the chunk")
	if _, ok, err := colseg.NewReader(fs).LoadColumns(key); ok || err == nil {
		t.Fatal("the corrupted chunk still loads")
	}
	if !fs.TruncateSidecar(path, c[0]+c[1]/2) {
		t.Fatal("TruncateSidecar found no sidecar")
	}
	check("TruncateSidecar")
	if err := fs.WriteFile(path, kvLines(1000, 5000)); err != nil {
		t.Fatal(err)
	}
	check("WriteFile over the path")
	if err := fs.Delete(path); err != nil {
		t.Fatal(err)
	}
	check("Delete")
}
