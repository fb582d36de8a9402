package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// lineDoc builds a document of n fixed-width numbered lines.
func lineDoc(prefix string, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%s%06d\n", prefix, i)
	}
	return buf.Bytes()
}

func TestAppendRoundTrip(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 4, Replication: 2, Seed: 1})
	base := lineDoc("a", 20)
	delta := lineDoc("b", 15)
	if err := fs.WriteFile("/f", base); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/f", delta); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), base...), delta...)
	if !bytes.Equal(got, want) {
		t.Fatalf("append round trip: got %d bytes, want %d", len(got), len(want))
	}
	if size, _ := fs.Stat("/f"); size != int64(len(want)) {
		t.Fatalf("size %d after append, want %d", size, len(want))
	}
}

func TestAppendCreatesMissingFile(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 3, Seed: 2})
	data := lineDoc("x", 5)
	if err := fs.Append("/new", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/new")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("append-created file does not round trip")
	}
	segs, err := segments(fs, "/new")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("segments = %v, want [0]", segs)
	}
}

func TestAppendRejectsUnalignedTail(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 3, Seed: 3})
	if err := fs.WriteFile("/f", []byte("no trailing newline")); err != nil {
		t.Fatal(err)
	}
	err := fs.Append("/f", []byte("more\n"))
	if !errors.Is(err, ErrUnalignedAppend) {
		t.Fatalf("unaligned append: got %v, want ErrUnalignedAppend", err)
	}
}

func TestAppendKeepsExistingSplitsStable(t *testing.T) {
	// Split size chosen so the base file's last split is short: without
	// segment-aware splitting, appending would lengthen it and shift
	// record ownership.
	fs := New(Config{BlockSize: 128, DataNodes: 4, Replication: 2, Seed: 4})
	base := lineDoc("a", 30) // 8 bytes per line, 240 bytes: splits of 128 → [0,128) [128,240)
	if err := fs.WriteFile("/f", base); err != nil {
		t.Fatal(err)
	}
	before, err := fs.Splits("/f", 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/f", lineDoc("b", 30)); err != nil {
		t.Fatal(err)
	}
	after, err := fs.Splits("/f", 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("append added no splits: %d -> %d", len(before), len(after))
	}
	for i, sp := range before {
		if after[i].Offset != sp.Offset || after[i].Length != sp.Length {
			t.Fatalf("existing split %d changed: %v -> %v", i, sp, after[i])
		}
	}
	// New splits cover exactly the appended region.
	segs, err := segments(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[1] != int64(len(base)) {
		t.Fatalf("segments = %v, want [0 %d]", segs, len(base))
	}
	var newBytes int64
	for _, sp := range after[len(before):] {
		if sp.Offset < int64(len(base)) {
			t.Fatalf("new split %v overlaps the old region", sp)
		}
		newBytes += sp.Length
	}
	if newBytes != 240 {
		t.Fatalf("new splits cover %d bytes, want 240", newBytes)
	}
}

func TestAppendRecordOwnershipStable(t *testing.T) {
	// Records read per split from the base file must be identical after
	// an append — the invariant maintained queries rely on.
	fs := New(Config{BlockSize: 100, DataNodes: 4, Replication: 2, Seed: 5})
	base := lineDoc("rec", 40)
	if err := fs.WriteFile("/f", base); err != nil {
		t.Fatal(err)
	}
	readAll := func(splits []Split) map[int][]string {
		out := map[int][]string{}
		for _, sp := range splits {
			rd, err := fs.NewLineReader(sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			for rd.Next() {
				out[sp.Index] = append(out[sp.Index], rd.Text())
			}
			if rd.Err() != nil {
				t.Fatal(rd.Err())
			}
		}
		return out
	}
	before, err := fs.Splits("/f", 100)
	if err != nil {
		t.Fatal(err)
	}
	baseRecords := readAll(before)
	if err := fs.Append("/f", lineDoc("new", 40)); err != nil {
		t.Fatal(err)
	}
	after, err := fs.Splits("/f", 100)
	if err != nil {
		t.Fatal(err)
	}
	afterRecords := readAll(after[:len(before)])
	for idx, recs := range baseRecords {
		got := afterRecords[idx]
		if len(got) != len(recs) {
			t.Fatalf("split %d: %d records before, %d after", idx, len(recs), len(got))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("split %d record %d changed: %q -> %q", idx, i, recs[i], got[i])
			}
		}
	}
	// Every record appears exactly once across all splits.
	seen := map[string]int{}
	for _, recs := range readAll(after) {
		for _, r := range recs {
			seen[r]++
		}
	}
	if len(seen) != 80 {
		t.Fatalf("%d distinct records, want 80", len(seen))
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("record %q owned by %d splits", r, n)
		}
	}
}

func TestAppendReplicatesNewBlocks(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 5, Replication: 3, Seed: 6})
	if err := fs.WriteFile("/f", lineDoc("a", 10)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/f", lineDoc("b", 20)); err != nil {
		t.Fatal(err)
	}
	// Appended data must survive two node failures (3 replicas).
	if err := fs.KillDataNode(0); err != nil {
		t.Fatal(err)
	}
	if err := fs.KillDataNode(1); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), lineDoc("a", 10)...), lineDoc("b", 20)...)
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appended blocks not fully replicated")
	}
}

func TestAppendEmptyDataIsNoop(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 3, Seed: 7})
	if err := fs.WriteFile("/f", lineDoc("a", 3)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/f", nil); err != nil {
		t.Fatal(err)
	}
	segs, _ := segments(fs, "/f")
	if len(segs) != 1 {
		t.Fatalf("empty append created a segment: %v", segs)
	}
}

// TestFileStateMovesForward: State reads Version and size from one
// commit, an Append and a rewrite each move it to a state After the
// last, a Snapshot keeps the state of its commit, and a missing path
// has none.
func TestFileStateMovesForward(t *testing.T) {
	fs := newTestFS(t, 8)
	if _, err := fs.State("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("State of a missing file: %v, want ErrNotFound", err)
	}
	var states []FileState
	for _, write := range []func() error{
		func() error { return fs.WriteFile("/f", lineDoc("a", 3)) },
		func() error { return fs.Append("/f", lineDoc("b", 2)) },
		func() error { return fs.WriteFile("/f", lineDoc("c", 1)) },
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
		st, err := fs.State("/f")
		if err != nil {
			t.Fatal(err)
		}
		size, _ := fs.Stat("/f")
		version, _ := fs.Version("/f")
		if st != (FileState{Version: version, Size: size}) {
			t.Fatalf("State %+v beside Version %d and Stat %d", st, version, size)
		}
		if n := len(states); n > 0 && (!st.After(states[n-1]) || states[n-1].After(st)) {
			t.Fatalf("state %+v does not follow %+v", st, states[n-1])
		}
		states = append(states, st)
	}
	if states[1].Version != states[0].Version || states[2].Version == states[1].Version {
		t.Fatalf("an append kept the version and a rewrite changed it: %+v", states)
	}
	snap := fs.Snapshot()
	defer snap.Release()
	if err := fs.Append("/f", lineDoc("d", 1)); err != nil {
		t.Fatal(err)
	}
	if st, _ := snap.State("/f"); st != states[2] {
		t.Fatalf("snapshot State %+v after a later append, want its commit's %+v", st, states[2])
	}
}
