package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/colscan"
	"repro/internal/colseg"
)

func sidecarTestFS() *FileSystem {
	return New(Config{BlockSize: 1 << 12, Replication: 2, DataNodes: 3, Seed: 1})
}

// numericLines renders n fixed-width records (9 bytes each).
func numericLines(n, base int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%08d\n", base+i)
	}
	return buf.Bytes()
}

// readSidecar fetches path's whole live sidecar through the Store surface.
func readSidecar(t *testing.T, fs *FileSystem, path string) []byte {
	t.Helper()
	return viewBytes(t, fs, path)
}

func TestWriteFileBuildsSidecar(t *testing.T) {
	fs := sidecarTestFS()
	data := numericLines(1000, 0) // 9 KB: above the ingest threshold
	if err := fs.WriteFile("/data", data); err != nil {
		t.Fatal(err)
	}
	info, err := colseg.Inspect(readSidecar(t, fs, "/data"))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := fs.Version("/data")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != ver || info.Cover != int64(len(data)) || info.Format != colscan.FormatNumeric {
		t.Fatalf("sidecar info %+v, want version %d cover %d numeric", info, ver, len(data))
	}
	// The chunk geometry matches Splits(path, 0) exactly.
	splits, err := fs.Splits("/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Chunks != len(splits) {
		t.Fatalf("%d chunks for %d splits", info.Chunks, len(splits))
	}
}

func TestSidecarIngestGates(t *testing.T) {
	fs := sidecarTestFS()
	// Too small to repay the encode.
	if err := fs.WriteFile("/small", numericLines(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.SidecarStat("/small"); ok {
		t.Fatal("sub-threshold file got a sidecar")
	}
	// A record the columnar validators reject: file stays text-only.
	bad := append(numericLines(1000, 0), []byte("NaN\n")...)
	bad = append(bad, numericLines(1000, 1000)...)
	if err := fs.WriteFile("/poisoned", bad); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.SidecarStat("/poisoned"); ok {
		t.Fatal("unparseable file got a sidecar")
	}
	// DisableSidecars turns ingest encoding off entirely.
	off := New(Config{BlockSize: 1 << 12, Replication: 2, DataNodes: 3, Seed: 1, DisableSidecars: true})
	if err := off.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := off.SidecarStat("/data"); ok {
		t.Fatal("DisableSidecars ingest built a sidecar")
	}
}

func TestSidecarRewriteAndDelete(t *testing.T) {
	fs := sidecarTestFS()
	if err := fs.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	v1, _ := fs.Version("/data")
	// Rewrite: the sidecar must track the new generation, not linger.
	if err := fs.WriteFile("/data", numericLines(2000, 5)); err != nil {
		t.Fatal(err)
	}
	info, err := colseg.Inspect(readSidecar(t, fs, "/data"))
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := fs.Version("/data")
	if info.Version != v2 || info.Version == v1 {
		t.Fatalf("rewritten sidecar at generation %d (v1=%d v2=%d)", info.Version, v1, v2)
	}
	// A rewrite to sub-threshold contents must drop the old sidecar.
	if err := fs.WriteFile("/data", numericLines(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.SidecarStat("/data"); ok {
		t.Fatal("rewrite to a small file left a stale sidecar")
	}
	if err := fs.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/data"); err != nil {
		t.Fatal(err)
	}
	if _, ok := fs.SidecarStat("/data"); ok {
		t.Fatal("Delete left the sidecar behind")
	}
}

func TestSidecarAppendExtends(t *testing.T) {
	fs := sidecarTestFS()
	if err := fs.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	before := readSidecar(t, fs, "/data")
	// A batch above the append threshold (8000 × 9 B = 72 KB) extends in
	// place: coverage reaches the new size, generation is unchanged, and
	// the pre-append chunk bytes are byte-stable inside the new sidecar.
	if err := fs.Append("/data", numericLines(8000, 1000)); err != nil {
		t.Fatal(err)
	}
	after := readSidecar(t, fs, "/data")
	info, err := colseg.Inspect(after)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat("/data")
	ver, _ := fs.Version("/data")
	if info.Cover != size || info.Version != ver {
		t.Fatalf("extended sidecar covers %d of %d at generation %d (want %d)", info.Cover, size, info.Version, ver)
	}
	binfo, err := colseg.Inspect(before)
	if err != nil {
		t.Fatal(err)
	}
	chunkRegion := before[25 : len(before)-12-36*binfo.Chunks]
	if !bytes.Contains(after, chunkRegion) {
		t.Fatal("append rewrote pre-append chunk bytes")
	}
}

// TestAppendAllocatesTheBatch pins that an append costs the batch, not
// the file, in memory: a 77 KB batch (4096 records of 19 bytes, just
// over the sidecar-extend threshold) allocates at most 4× its bytes —
// the journal frame (the one copy of the data, which the blocks are cut
// from), the sidecar tail and its share of an extent — and the same
// batches onto a file 20× larger allocate at most 1.1× as much. A second
// copy of the data, a copied journal image or a sidecar re-encoded from
// the start shows here.
func TestAppendAllocatesTheBatch(t *testing.T) {
	const warmup, appends = 4, 16
	records := func(n int) []byte {
		buf := make([]byte, 0, 19*n)
		for i := 0; i < n; i++ {
			buf = fmt.Appendf(buf, "%018d\n", i)
		}
		return buf
	}
	batch := records(4096)
	if len(batch) < sidecarAppendMinBytes {
		t.Fatalf("a %d-byte batch would not extend the sidecar", len(batch))
	}
	perAppend := func(fileRecs int) uint64 {
		fs := New(Config{Seed: 6})
		if err := fs.WriteFile("/data", records(fileRecs)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		for i := 0; i < warmup+appends; i++ {
			if i == warmup {
				runtime.GC()
				runtime.ReadMemStats(&before)
			}
			if err := fs.Append("/data", batch); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		info, err := colseg.Inspect(readSidecar(t, fs, "/data"))
		if size, _ := fs.Stat("/data"); err != nil || info.Cover != size {
			t.Fatalf("sidecar covers %d of %d bytes: %v", info.Cover, size, err)
		}
		return (after.TotalAlloc - before.TotalAlloc) / appends
	}
	small, large := perAppend(20_000), perAppend(400_000)
	t.Logf("a %d-byte append allocates %d B onto %d records, %d B onto %d", len(batch), small, 20_000, large, 400_000)
	if limit := uint64(4 * len(batch)); small > limit || large > limit {
		t.Errorf("appending %d bytes allocates %d B (small file) and %d B (20× file), limit 4× the batch", len(batch), small, large)
	}
	if float64(large) > 1.1*float64(small) {
		t.Errorf("the same append allocates %d B onto a 20× file vs %d B (limit 1.1×)", large, small)
	}
}

func TestSidecarSmallAppendWaitsForCompact(t *testing.T) {
	fs := sidecarTestFS()
	if err := fs.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/data", numericLines(20, 1000)); err != nil {
		t.Fatal(err)
	}
	info, err := colseg.Inspect(readSidecar(t, fs, "/data"))
	if err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat("/data")
	if info.Cover >= size {
		t.Fatalf("sub-threshold append extended coverage to %d of %d", info.Cover, size)
	}
	st, err := fs.Compact("/data")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rebuilt || st.CoveredBytes != size {
		t.Fatalf("Compact = %+v, want a rebuild covering %d bytes", st, size)
	}
	// A second Compact finds full coverage and does nothing.
	st, err = fs.Compact("/data")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt {
		t.Fatalf("Compact rebuilt an already-covered sidecar: %+v", st)
	}
}

// TestSidecarLargeAppendCatchesUp: one sub-threshold append must not
// freeze coverage for every later append. The next append of at least
// sidecarAppendMinBytes extends over the segment the small one left
// uncovered, then over its own, so the sidecar covers the whole file and
// is byte-identical to colseg.Build of it.
func TestSidecarLargeAppendCatchesUp(t *testing.T) {
	fs := sidecarTestFS()
	if err := fs.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/data", numericLines(20, 1000)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := fs.Append("/data", numericLines(8000, 1020+8000*i)); err != nil { // 72 KB
			t.Fatal(err)
		}
	}
	got := readSidecar(t, fs, "/data")
	info, err := colseg.Inspect(got)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat("/data")
	if info.Cover != size {
		t.Fatalf("sidecar covers %d of %d bytes after a small append and five large ones", info.Cover, size)
	}
	if !bytes.Equal(got, buildWhole(t, fs, "/data", colscan.FormatNumeric)) {
		t.Fatal("caught-up sidecar differs from colseg.Build of the whole file")
	}
}

func TestCompactBackfillsAndRejects(t *testing.T) {
	fs := sidecarTestFS()
	// Backfill: a file ingested below the sidecar threshold.
	if err := fs.WriteFile("/small", numericLines(10, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Compact("/small")
	if err != nil {
		t.Fatal(err)
	}
	size, _ := fs.Stat("/small")
	if !st.Rebuilt || st.CoveredBytes != size || st.SidecarBytes <= 0 {
		t.Fatalf("Compact backfill = %+v", st)
	}
	if _, ok := fs.SidecarStat("/small"); !ok {
		t.Fatal("Compact did not store the backfilled sidecar")
	}
	// A poisoned file keeps no sidecar and surfaces the decode error.
	if err := fs.WriteFile("/poisoned", []byte("1\nNaN\n2\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Compact("/poisoned"); !errors.Is(err, colscan.ErrBadRecord) {
		t.Fatalf("Compact over a NaN record: %v, want ErrBadRecord", err)
	}
	if _, ok := fs.SidecarStat("/poisoned"); ok {
		t.Fatal("Compact stored a sidecar for an unparseable file")
	}
	if _, err := fs.Compact("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Compact of a missing path: %v, want ErrNotFound", err)
	}
}

func TestSidecarFaultInjection(t *testing.T) {
	fs := sidecarTestFS()
	if fs.CorruptSidecarByte("/none", 0) {
		t.Fatal("CorruptSidecarByte invented a sidecar")
	}
	if fs.TruncateSidecar("/none", 0) {
		t.Fatal("TruncateSidecar invented a sidecar")
	}
	if err := fs.WriteFile("/data", numericLines(1000, 0)); err != nil {
		t.Fatal(err)
	}
	clean := readSidecar(t, fs, "/data")
	if !fs.CorruptSidecarByte("/data", 30) {
		t.Fatal("CorruptSidecarByte found no sidecar")
	}
	if bytes.Equal(clean, readSidecar(t, fs, "/data")) {
		t.Fatal("CorruptSidecarByte changed nothing")
	}
	// The pre-flip slice held by a concurrent reader is untouched
	// (copy-on-write), and Compact detects the damage and rebuilds.
	if _, err := colseg.Inspect(clean); err != nil {
		t.Fatalf("copy-on-write violated: the old slice was mutated: %v", err)
	}
	st, err := fs.Compact("/data")
	if err != nil || !st.Rebuilt {
		t.Fatalf("Compact over a corrupt sidecar = %+v, %v", st, err)
	}
	if !fs.TruncateSidecar("/data", 40) {
		t.Fatal("TruncateSidecar found no sidecar")
	}
	if size, _ := fs.SidecarStat("/data"); size != 40 {
		t.Fatalf("truncated sidecar is %d bytes, want 40", size)
	}
}
