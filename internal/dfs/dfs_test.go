package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simcost"
)

func newTestFS(t *testing.T, blockSize int64) *FileSystem {
	t.Helper()
	return New(Config{BlockSize: blockSize, Replication: 2, DataNodes: 4, Seed: 42})
}

// The tests read a file in ways no View reader does — whole, listed, by
// segment, counted in lines, probed for existence — through the state
// a View holds.

// held returns the state v reads: a Snapshot's commit, or the
// filesystem's last.
func held(v View) state {
	if fs, ok := v.(*FileSystem); ok {
		return fs.live()
	}
	return v.(*Snapshot).state
}

// exists reports whether path is in v.
func exists(v View, path string) bool {
	_, ok := held(v).ns.files[path]
	return ok
}

// segments returns the start offset of every segment of path in v:
// offset 0 for the write, and one per Append since.
func segments(v View, path string) ([]int64, error) {
	meta, err := held(v).file(path)
	if err != nil {
		return nil, err
	}
	return slices.Clone(meta.segments), nil
}

// countLines returns the records of path in v, a last line without its
// newline included.
func countLines(v View, path string) (int64, error) {
	data, err := held(v).ReadFile(path)
	if err != nil || len(data) == 0 {
		return 0, err
	}
	n := int64(bytes.Count(data, []byte{'\n'}))
	if data[len(data)-1] != '\n' {
		n++
	}
	return n, nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(t, 16)
	data := []byte("hello distributed world, this spans several 16-byte blocks")
	if err := fs.WriteFile("/a", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch: %q vs %q", got, data)
	}
	size, err := fs.Stat("/a")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Stat = %d, %v", size, err)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newTestFS(t, 16)
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read = %q, %v", got, err)
	}
	splits, err := fs.Splits("/empty", 0)
	if err != nil || len(splits) != 1 || splits[0].Length != 0 {
		t.Fatalf("empty splits = %v, %v", splits, err)
	}
}

func TestOverwriteReplacesBlocks(t *testing.T) {
	fs := newTestFS(t, 8)
	if err := fs.WriteFile("/f", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("short")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || string(got) != "short" {
		t.Fatalf("overwrite read = %q, %v", got, err)
	}
	// The live file state is exactly the new file's: 1 block ×
	// replication 2.
	meta, err := fs.live().file("/f")
	if err != nil || len(meta.blocks) != 1 || len(meta.blocks[0].replicas) != 2 {
		t.Fatalf("stale blocks remain: %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := newTestFS(t, 8)
	if _, err := fs.ReadFile("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := fs.Delete("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete err = %v, want ErrNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	fs := newTestFS(t, 8)
	if err := fs.WriteFile("/f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if exists(fs, "/f") {
		t.Fatal("file still exists after delete")
	}
}

func TestList(t *testing.T) {
	fs := newTestFS(t, 8)
	for _, p := range []string{"/job1/err-0", "/job1/err-1", "/job2/err-0"} {
		if err := fs.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/job1/")
	if len(got) != 2 || got[0] != "/job1/err-0" || got[1] != "/job1/err-1" {
		t.Fatalf("List = %v", got)
	}
}

func TestReadAtRanges(t *testing.T) {
	fs := newTestFS(t, 8)
	data := []byte("0123456789abcdefghij")
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	// Read across a block boundary.
	buf := make([]byte, 6)
	n, err := fs.ReadAt("/f", 5, buf)
	if err != nil || n != 6 || string(buf) != "56789a" {
		t.Fatalf("ReadAt = %q (%d), %v", buf[:n], n, err)
	}
	// Read past EOF truncates.
	n, err = fs.ReadAt("/f", 18, buf)
	if err != nil || n != 2 || string(buf[:n]) != "ij" {
		t.Fatalf("tail ReadAt = %q (%d), %v", buf[:n], n, err)
	}
	// Offset beyond EOF reads nothing.
	n, err = fs.ReadAt("/f", 100, buf)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF ReadAt = %d, %v", n, err)
	}
	if _, err := fs.ReadAt("/f", -1, buf); err == nil {
		t.Fatal("negative offset should error")
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	fs := New(Config{BlockSize: 8, Replication: 3, DataNodes: 5, Seed: 7})
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	// With replication 3, any 2 failures leave every block readable.
	if err := fs.KillDataNode(0); err != nil {
		t.Fatal(err)
	}
	if err := fs.KillDataNode(3); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after failures = %v, %v", got, err)
	}
	if live := fs.LiveDataNodes(); len(live) != 3 {
		t.Fatalf("live = %v", live)
	}
}

func TestAllReplicasDead(t *testing.T) {
	fs := New(Config{BlockSize: 8, Replication: 1, DataNodes: 2, Seed: 7})
	if err := fs.WriteFile("/f", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	fs.KillDataNode(0)
	fs.KillDataNode(1)
	if _, err := fs.ReadFile("/f"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	// Revival restores access.
	fs.ReviveDataNode(0)
	fs.ReviveDataNode(1)
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatalf("read after revive: %v", err)
	}
}

func TestWriteWithNoLiveNodes(t *testing.T) {
	fs := New(Config{DataNodes: 1})
	fs.KillDataNode(0)
	if err := fs.WriteFile("/f", []byte("x")); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("err = %v, want ErrNoDataNodes", err)
	}
}

func TestKillInvalidNode(t *testing.T) {
	fs := New(Config{DataNodes: 2})
	if err := fs.KillDataNode(9); err == nil {
		t.Fatal("invalid node id should error")
	}
	if err := fs.ReviveDataNode(-1); err == nil {
		t.Fatal("invalid node id should error")
	}
}

func TestMetricsAccounting(t *testing.T) {
	var m simcost.Metrics
	fs := New(Config{BlockSize: 8, Replication: 2, DataNodes: 3, Metrics: &m, Seed: 1})
	data := make([]byte, 100)
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.BytesWritten != 200 { // 100 bytes × 2 replicas
		t.Fatalf("BytesWritten = %d, want 200", s.BytesWritten)
	}
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	s = m.Snapshot()
	if s.BytesRead != 100 {
		t.Fatalf("BytesRead = %d, want 100", s.BytesRead)
	}
	if s.DiskSeeks != 1 {
		t.Fatalf("DiskSeeks = %d, want 1 for sequential read", s.DiskSeeks)
	}
	buf := make([]byte, 4)
	fs.ReadAt("/f", 50, buf)
	if s2 := m.Snapshot(); s2.DiskSeeks != 2 {
		t.Fatalf("random read should add a seek, got %d", s2.DiskSeeks)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, sizeHint uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := int(sizeHint) % 2000
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		fs := New(Config{BlockSize: 33, Replication: 2, DataNodes: 3, Seed: seed})
		if err := fs.WriteFile("/p", data); err != nil {
			return false
		}
		got, err := fs.ReadFile("/p")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPlacementDistinctNodes(t *testing.T) {
	fs := New(Config{BlockSize: 4, Replication: 3, DataNodes: 5, Seed: 11})
	if err := fs.WriteFile("/f", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	// Each of the 10 blocks must have 3 replicas on 3 distinct nodes.
	meta, err := fs.live().file("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.blocks) != 10 {
		t.Fatalf("%d blocks, want 10", len(meta.blocks))
	}
	for _, blk := range meta.blocks {
		seen := map[int]bool{}
		for _, id := range blk.replicas {
			seen[id] = true
		}
		if len(blk.replicas) != 3 || len(seen) != 3 {
			t.Fatalf("block %d placed on %v, want 3 distinct nodes", blk.id, blk.replicas)
		}
	}
}

func TestEmptyPathRejected(t *testing.T) {
	fs := newTestFS(t, 8)
	if err := fs.WriteFile("", []byte("x")); err == nil {
		t.Fatal("empty path should error")
	}
}

func ExampleFileSystem_Splits() {
	fs := New(Config{BlockSize: 10, Replication: 1, DataNodes: 1})
	_ = fs.WriteFile("/data", []byte("0123456789ABCDEFGHIJKLMNO"))
	splits, _ := fs.Splits("/data", 10)
	for _, s := range splits {
		fmt.Println(s)
	}
	// Output:
	// /data[0: 0+10]
	// /data[1: 10+10]
	// /data[2: 20+5]
}
