package dfs

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/colscan"
	"repro/internal/colseg"
)

// kvLines renders n fixed-width key\tvalue records (12 bytes each).
func kvLines(n, base int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "g%d\t%08d\n", (base+i)%7, base+i)
	}
	return buf.Bytes()
}

// buildWhole is the format oracle: colseg.Build over path's current
// bytes and segment list, as a fresh ingest of the same file would.
func buildWhole(t *testing.T, fs *FileSystem, path string, format colscan.Format) []byte {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segments(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	ver, err := fs.Version(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := colseg.Build(format, ver, data, segs, fs.BlockSize())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// sidecarOf reads path's whole sidecar through v's Store surface.
func sidecarOf(v View, path string) ([]byte, error) {
	size, ok := v.SidecarStat(path)
	if !ok {
		return nil, fmt.Errorf("no sidecar for %s", path)
	}
	buf := make([]byte, size)
	if n, err := held(v).ReadSidecarAt(path, 0, buf); err != nil || int64(n) != size {
		return nil, fmt.Errorf("read sidecar %s: %d of %d bytes, %v", path, n, size, err)
	}
	return buf, nil
}

// viewBytes is sidecarOf for the test's own goroutine.
func viewBytes(t *testing.T, v View, path string) []byte {
	t.Helper()
	buf, err := sidecarOf(v, path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSidecarFormatIdentity is the byte-layout property: however dfs
// holds a sidecar in memory, what ReadSidecarAt serves after a write
// and k appends is the sidecar colseg.Build encodes for the whole file
// — and the one colseg.Extend produces from the previous version —
// whenever ingest kept coverage full; a sub-threshold append leaves the
// bytes alone until Compact. Batches sit on both sides of
// sidecarAppendMinBytes and are large enough to cross extent
// boundaries within a few appends.
func TestSidecarFormatIdentity(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x51dec0))
		lines, format, recBytes := numericLines, colscan.FormatNumeric, 9
		if trial%2 == 1 {
			lines, format, recBytes = kvLines, colscan.FormatKV, 12
		}
		blockSize := []int64{4 << 10, 48 << 10, 1 << 20, DefaultBlockSize}[trial/2%4]
		fs := New(Config{BlockSize: blockSize, Replication: 2, DataNodes: 3, Seed: uint64(trial)})
		const path = "/data"
		next := 0
		batch := func(minBytes, maxBytes int) []byte {
			n := (minBytes + rng.IntN(maxBytes-minBytes)) / recBytes
			b := lines(n, next)
			next += n
			return b
		}
		if err := fs.WriteFile(path, batch(sidecarMinBytes+recBytes, 100<<10)); err != nil {
			t.Fatal(err)
		}
		covered := true
		prev := readSidecar(t, fs, path)
		if want := buildWhole(t, fs, path, format); !bytes.Equal(prev, want) {
			t.Fatalf("trial %d: WriteFile sidecar differs from Build", trial)
		}
		check := func(step string, data []byte, segStart int64) {
			t.Helper()
			got := readSidecar(t, fs, path)
			if _, err := colseg.Inspect(got); err != nil {
				t.Fatalf("trial %d %s: Inspect: %v", trial, step, err)
			}
			switch {
			case !covered:
				if !bytes.Equal(got, prev) {
					t.Fatalf("trial %d %s: an uncovered sidecar changed", trial, step)
				}
			default:
				if want := buildWhole(t, fs, path, format); !bytes.Equal(got, want) {
					t.Fatalf("trial %d %s: sidecar (%d bytes) differs from Build of the whole file (%d bytes)",
						trial, step, len(got), len(want))
				}
				if data != nil {
					ver, _ := fs.Version(path)
					ext, err := colseg.Extend(prev, ver, data, segStart, blockSize)
					if err != nil || !bytes.Equal(got, ext) {
						t.Fatalf("trial %d %s: sidecar differs from colseg.Extend of its predecessor (err %v)", trial, step, err)
					}
				}
			}
			// Positioned reads cut across piece boundaries.
			for i := 0; i < 8; i++ {
				off := rng.Int64N(int64(len(got)))
				p := make([]byte, 1+rng.IntN(200<<10))
				n, err := fs.ReadSidecarAt(path, off, p)
				if err != nil || !bytes.Equal(p[:n], got[off:min(off+int64(len(p)), int64(len(got)))]) {
					t.Fatalf("trial %d %s: ReadSidecarAt(%d, %d bytes) = %d bytes, %v: not the sidecar's bytes", trial, step, off, len(p), n, err)
				}
			}
			prev = got
		}
		appendBatch := func(step string, data []byte) {
			t.Helper()
			segStart, _ := fs.Stat(path)
			if err := fs.Append(path, data); err != nil {
				t.Fatal(err)
			}
			extended := covered // the successor is colseg.Extend of its predecessor
			covered = len(data) >= sidecarAppendMinBytes
			if !extended {
				data = nil // a catch-up extends over earlier segments too
			}
			check(step, data, segStart)
		}
		for k := 0; k < 9; k++ {
			// One numeric and one KV trial drop a sub-threshold batch in
			// the middle, which the next append catches up, and one at
			// the end, which Compact covers; the rest keep coverage to
			// the end.
			if (trial == 2 || trial == 5) && (k == 4 || k == 8) {
				appendBatch(fmt.Sprintf("small append %d", k), batch(recBytes, sidecarAppendMinBytes-recBytes))
				continue
			}
			appendBatch(fmt.Sprintf("append %d", k), batch(sidecarAppendMinBytes+recBytes, 3*sidecarAppendMinBytes))
		}
		if len(fs.ns.Load().files[path].sidecar.Load().pieces) < 5 {
			t.Fatalf("trial %d: the appends never crossed an extent boundary", trial)
		}
		// Compact forks an uncovered view (a fresh Build output); appends
		// after it must extend that, in a new extent.
		if _, err := fs.Compact(path); err != nil {
			t.Fatal(err)
		}
		covered = true
		check("compact", nil, 0)
		appendBatch("append after compact", batch(sidecarAppendMinBytes+recBytes, 3*sidecarAppendMinBytes))
	}
}

// TestSidecarSnapshotKeepsItsVersion pins a snapshot whose view ends
// inside the tip extent, then appends in place behind it while readers
// run: the snapshot keeps serving its own size, header cover, footer
// and CRC-valid chunks, and every fresh snapshot sees one whole
// version. Run under -race.
func TestSidecarSnapshotKeepsItsVersion(t *testing.T) {
	fs := New(Config{BlockSize: 32 << 10, Replication: 2, DataNodes: 3, Seed: 7})
	const path = "/data"
	if err := fs.WriteFile(path, numericLines(2000, 0)); err != nil {
		t.Fatal(err)
	}
	next := 2000
	grow := func() {
		if err := fs.Append(path, numericLines(8000, next)); err != nil {
			t.Error(err)
		}
		next += 8000
	}
	grow() // the pinned view's last run is now a prefix of an extent
	snap := fs.Snapshot()
	defer snap.Release()
	pinnedSize, _ := snap.Stat(path)
	pinned := viewBytes(t, snap, path)
	if info, err := colseg.Inspect(pinned); err != nil || info.Cover != pinnedSize {
		t.Fatalf("pinned sidecar: %+v, %v", info, err)
	}

	const appends = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := sidecarOf(snap, path); err != nil || !bytes.Equal(got, pinned) {
					t.Errorf("a pinned snapshot's sidecar changed under appends (err %v)", err)
					return
				}
				cur := fs.Snapshot()
				size, _ := cur.Stat(path)
				got, err := sidecarOf(cur, path)
				cur.Release()
				if err != nil {
					t.Error(err)
					return
				}
				if info, err := colseg.Inspect(got); err != nil || info.Cover != size {
					t.Errorf("fresh snapshot: sidecar %+v over a %d-byte file, %v", info, size, err)
					return
				}
			}
		}()
	}
	for i := 0; i < appends; i++ {
		grow()
	}
	close(stop)
	wg.Wait()
	if got := viewBytes(t, snap, path); !bytes.Equal(got, pinned) {
		t.Fatal("the pinned snapshot's sidecar changed")
	}
	if got, want := readSidecar(t, fs, path), buildWhole(t, fs, path, colscan.FormatNumeric); !bytes.Equal(got, want) {
		t.Fatal("live sidecar differs from Build after in-place appends")
	}
}

// TestSidecarForksNeverTouchSharedBytes drives every way a live view
// can stop being the plain successor of its predecessor —
// CorruptSidecarByte, TruncateSidecar, Compact, Recover — and appends
// after each: no byte a pinned older version can see may change, and
// the live sidecar must be what the contiguous encoder would have
// produced from the same (damaged or rebuilt) bytes.
func TestSidecarForksNeverTouchSharedBytes(t *testing.T) {
	const path = "/data"
	cfg := Config{BlockSize: 32 << 10, Replication: 2, DataNodes: 3, Seed: 3}
	type fork struct {
		name string
		// apply damages or rebuilds the live sidecar (size bytes long,
		// chunk payloads ending at footerStart).
		apply func(t *testing.T, fs *FileSystem, size, footerStart int64)
		// extends reports whether an Append can still extend the result.
		extends bool
	}
	forks := []fork{
		{"corrupt a byte of the tip extent", func(t *testing.T, fs *FileSystem, _, footerStart int64) {
			if !fs.CorruptSidecarByte(path, footerStart-10) {
				t.Fatal("no sidecar to corrupt")
			}
		}, true},
		{"corrupt a byte of the shared first run", func(t *testing.T, fs *FileSystem, _, _ int64) {
			if !fs.CorruptSidecarByte(path, 40) {
				t.Fatal("no sidecar to corrupt")
			}
		}, true},
		{"corrupt the header", func(t *testing.T, fs *FileSystem, _, _ int64) {
			if !fs.CorruptSidecarByte(path, 3) {
				t.Fatal("no sidecar to corrupt")
			}
		}, false},
		{"truncate inside the tip extent", func(t *testing.T, fs *FileSystem, _, footerStart int64) {
			if !fs.TruncateSidecar(path, footerStart-10) {
				t.Fatal("no sidecar to truncate")
			}
		}, false},
		{"truncate the footer off", func(t *testing.T, fs *FileSystem, _, footerStart int64) {
			if !fs.TruncateSidecar(path, footerStart) {
				t.Fatal("no sidecar to truncate")
			}
		}, false},
		{"truncate to nothing, compact", func(t *testing.T, fs *FileSystem, _, _ int64) {
			fs.TruncateSidecar(path, 0)
			if st, err := fs.Compact(path); err != nil || !st.Rebuilt {
				t.Fatalf("Compact = %+v, %v", st, err)
			}
		}, true},
	}
	for _, fk := range forks {
		t.Run(fk.name, func(t *testing.T) {
			fs := New(cfg)
			if err := fs.WriteFile(path, numericLines(2000, 0)); err != nil {
				t.Fatal(err)
			}
			next := 2000
			grow := func() []byte {
				data := numericLines(8000, next)
				next += 8000
				if err := fs.Append(path, data); err != nil {
					t.Fatal(err)
				}
				return data
			}
			// Pin three older versions: the Build output, a view ending in
			// the first extent, a view ending in the second.
			var snaps []*Snapshot
			var pinned [][]byte
			pin := func() {
				s := fs.Snapshot()
				snaps = append(snaps, s)
				pinned = append(pinned, viewBytes(t, s, path))
			}
			pin()
			grow()
			pin()
			grow()
			grow()
			pin()
			grow() // the live version no snapshot shares
			live := readSidecar(t, fs, path)
			_, chunks, _, err := colseg.Split(live)
			if err != nil {
				t.Fatal(err)
			}
			fk.apply(t, fs, int64(len(live)), int64(25+len(chunks)))
			forked := readSidecar(t, fs, path)

			segStart, _ := fs.Stat(path)
			data := grow()
			got := readSidecar(t, fs, path)
			if fk.extends {
				ver, _ := fs.Version(path)
				want, err := colseg.Extend(forked, ver, data, segStart, cfg.BlockSize)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("append after the fork differs from colseg.Extend of the forked bytes (err %v)", err)
				}
			} else if !bytes.Equal(got, forked) {
				t.Fatal("append extended a sidecar colseg.Extend refuses")
			}
			grow() // and once more, now behind the fork's own extent
			for i, s := range snaps {
				if !bytes.Equal(viewBytes(t, s, path), pinned[i]) {
					t.Fatalf("snapshot %d's sidecar changed", i)
				}
				if _, err := colseg.Inspect(pinned[i]); err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
				s.Release()
			}
		})
	}

	t.Run("recover", func(t *testing.T) {
		fs := New(cfg)
		if err := fs.WriteFile(path, numericLines(2000, 0)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := fs.Append(path, numericLines(8000, 2000+8000*i)); err != nil {
				t.Fatal(err)
			}
		}
		before := readSidecar(t, fs, path)
		rec, st, err := Recover(cfg, fs.JournalBytes())
		if err != nil || st.Sidecars != 1 {
			t.Fatalf("Recover: %+v, %v", st, err)
		}
		if !bytes.Equal(readSidecar(t, rec, path), before) {
			t.Fatal("replay rebuilt a different sidecar")
		}
		snap := rec.Snapshot()
		defer snap.Release()
		more := numericLines(8000, 50000)
		for _, f := range []*FileSystem{fs, rec} {
			if err := f.Append(path, more); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(viewBytes(t, snap, path), before) {
			t.Fatal("append after Recover changed the recovered version's sidecar")
		}
		if !bytes.Equal(readSidecar(t, rec, path), readSidecar(t, fs, path)) {
			t.Fatal("original and recovered filesystems diverged after the same append")
		}
	})
}
