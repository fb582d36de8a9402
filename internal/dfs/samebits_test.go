package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/simcost"
)

// fnv64 is the FNV-1a hash the same-bits records are written in.
func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// fixedScript runs one fixed sequence of writes, appends, deletes, a
// pinned rewrite, every kind of read and a torn-tail crash, and records
// after each stage everything a change of storage layout or locking
// must leave alone: the journal image's hash, the journal counters, the
// replica rotation tick and the modelled cost.
func fixedScript(t *testing.T) []string {
	t.Helper()
	m := &simcost.Metrics{}
	cfg := Config{BlockSize: 4 << 10, Replication: 2, DataNodes: 4, Seed: 20, Metrics: m}
	fs := New(cfg)
	var rec []string
	stage := func(name string) {
		js := fs.JournalStats()
		rec = append(rec, fmt.Sprintf("%s: image %016x stats {%d %d %d} tick %d cost %+v",
			name, fnv64(fs.JournalBytes()), js.Commits, js.Bytes, js.Pins, fs.readTick.Load(), m.Snapshot()))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	big := bytes.Repeat([]byte("3.25\n7.5\n"), 2048) // 18 KB: four blocks and a sidecar
	must(fs.WriteFile("/data/a", []byte("1\n2\n3\n")))
	must(fs.WriteFile("/data/big", big))
	must(fs.Append("/data/a", []byte("4\n5\n")))
	must(fs.Append("/data/fresh", []byte("9\n")))
	must(fs.WriteFile("/data/empty", nil))
	must(fs.Append("/data/big", bytes.Repeat([]byte("1.5\n"), 20<<10))) // 80 KB: extends the sidecar
	must(fs.Delete("/data/fresh"))
	stage("ingest")

	// Every kind of read, on the live view.
	var reads strings.Builder
	view := func(v View) {
		for _, p := range held(v).List("/data/") {
			data, err := held(v).ReadFile(p)
			must(err)
			n, err := countLines(v, p)
			must(err)
			size, _ := v.Stat(p)
			ver, _ := v.Version(p)
			segs, _ := segments(v, p)
			fmt.Fprintf(&reads, "%s %d %016x lines %d v%d %v;", p, size, fnv64(data), n, ver, segs)
			splits, err := v.Splits(p, 3000)
			must(err)
			for _, sp := range splits {
				r, err := v.NewLineReader(sp, 512)
				must(err)
				k := 0
				for r.Next() {
					k++
				}
				must(r.Err())
				fmt.Fprintf(&reads, " %d", k)
			}
			for pos := int64(0); pos < size; pos += size/7 + 1 {
				line, start, err := v.ReadLineAt(p, pos, 4)
				must(err)
				buf := make([]byte, 100)
				k, err := v.ReadAt(p, pos, buf)
				must(err)
				fmt.Fprintf(&reads, " %q@%d/%d", line, start, k)
			}
			if scLen, ok := v.SidecarStat(p); ok {
				b, err := v.ViewSidecarAt(p, scLen/3, scLen/2)
				must(err)
				buf := make([]byte, scLen)
				k, err := held(v).ReadSidecarAt(p, 0, buf)
				must(err)
				fmt.Fprintf(&reads, " sc %d %016x %016x", scLen, fnv64(b), fnv64(buf[:k]))
			}
		}
	}
	view(fs)
	stage("live reads")

	// A pinned rewrite: the snapshot keeps the old bytes, the pin shows
	// in the journal counters, and the release prunes.
	snap := fs.Snapshot()
	must(fs.WriteFile("/data/big", bytes.Repeat([]byte("8\n"), 3000)))
	must(fs.Append("/data/a", []byte("6\n")))
	stage("pinned rewrite")
	view(snap)
	view(fs)
	snap.Release()
	fmt.Fprintf(&reads, " blocks %v", liveBlockCounts(fs))
	stage("released")

	// A node dies, reads rotate over the survivors. The stage's name is
	// part of its recorded line, so it keeps the one it was recorded under.
	must(fs.KillDataNode(1))
	view(fs)
	must(fs.ReviveDataNode(1))
	view(fs)
	stage("kill, revive, rebalance")

	// The torn-tail crash: commit 11 loses power half-way through its frame.
	fs.SetFaultPlan(&FaultPlan{CrashAtCommit: fs.CommitSeq() + 1, TornTail: true})
	if err := fs.Append("/data/a", []byte("7\n")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash commit: got %v, want ErrCrashed", err)
	}
	if err := fs.WriteFile("/data/late", []byte("x\n")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit after crash: got %v, want ErrCrashed", err)
	}
	view(fs)
	stage("crashed")

	image := fs.JournalBytes()
	back, st, err := Recover(Config{BlockSize: cfg.BlockSize, Replication: 2, DataNodes: 4, Seed: 20}, image)
	must(err)
	if !sameState(fsState(t, back), fsState(t, fs)) {
		t.Fatal("recovered state differs from the crashed filesystem's committed state")
	}
	rec = append(rec, fmt.Sprintf("recovered: %+v image %016x", st, fnv64(back.JournalBytes())))
	rec = append(rec, fmt.Sprintf("reads: %016x", fnv64([]byte(reads.String()))))
	return rec
}

// liveBlockCounts is, per DataNode id, how many replicas of the live
// namespace's blocks it holds.
func liveBlockCounts(fs *FileSystem) map[int]int {
	out := make(map[int]int, len(fs.nodes))
	for _, n := range fs.nodes {
		out[n.id] = 0
	}
	for _, meta := range fs.ns.Load().files {
		for _, blk := range meta.blocks {
			for _, id := range blk.replicas {
				out[id]++
			}
		}
	}
	return out
}

// fixedScriptParent is fixedScript's record at the parent of the change
// that moved reads off the lock and made the journal frame the block
// (PR 20), taken before the change was written.
var fixedScriptParent = []string{
	"ingest: image d1aede3baa5cd366 stats {7 100612 0} tick 2 cost read=0B written=496877B shuffled=0B recs(in/map/red)=0/0/0 seeks=0 tasks(m/r)=0/0 jobs=0 restarts=0 refreshes=0",
	"live reads: image d1aede3baa5cd366 stats {7 100612 0} tick 320 cost read=748621B written=496877B shuffled=0B recs(in/map/red)=0/0/0 seeks=235 tasks(m/r)=0/0 jobs=0 restarts=0 refreshes=0",
	"pinned rewrite: image b4cfeec8b30bf4c7 stats {9 106680 1} tick 321 cost read=748621B written=545014B shuffled=0B recs(in/map/red)=0/0/0 seeks=235 tasks(m/r)=0/0 jobs=0 restarts=0 refreshes=0",
	"released: image b4cfeec8b30bf4c7 stats {9 106680 0} tick 709 cost read=1570394B written=545014B shuffled=0B recs(in/map/red)=0/0/0 seeks=517 tasks(m/r)=0/0 jobs=0 restarts=0 refreshes=0",
	"kill, revive, rebalance: image b4cfeec8b30bf4c7 stats {9 106680 0} tick 849 cost read=1716698B written=545014B shuffled=0B recs(in/map/red)=0/0/0 seeks=611 tasks(m/r)=0/0 jobs=0 restarts=0 refreshes=0",
	"crashed: image 6767827158f6cab8 stats {9 106697 0} tick 920 cost read=1789850B written=545014B shuffled=0B recs(in/map/red)=0/0/0 seeks=658 tasks(m/r)=0/0 jobs=0 restarts=0 refreshes=0",
	"recovered: {Commits:9 Bytes:106680 TornTail:true DroppedBytes:17 Files:3 Sidecars:1} image b4cfeec8b30bf4c7",
	"reads: f47de3bd29ef3365",
}

// TestFixedScriptSameBits holds the journal image, the journal counters,
// the replica rotation and the modelled cost of a fixed script to what
// they were before reads left the lock.
func TestFixedScriptSameBits(t *testing.T) {
	got := fixedScript(t)
	if len(got) != len(fixedScriptParent) {
		t.Fatalf("%d stages, want %d", len(got), len(fixedScriptParent))
	}
	for i, want := range fixedScriptParent {
		if got[i] != want {
			t.Errorf("stage %d:\n got %s\nwant %s", i, got[i], want)
		}
	}
}
