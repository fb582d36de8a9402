package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/journal"
)

// fsState captures the logically observable namespace: every live file's
// bytes, segments, write generation, and sidecar bytes. Replica
// placement is deliberately excluded — it is physical state no read can
// observe.
func fsState(t *testing.T, v View) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, p := range held(v).List("") {
		data, err := held(v).ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", p, err)
		}
		segs, err := segments(v, p)
		if err != nil {
			t.Fatalf("segments(%s): %v", p, err)
		}
		ver, err := v.Version(p)
		if err != nil {
			t.Fatalf("Version(%s): %v", p, err)
		}
		scLen, _ := v.SidecarStat(p)
		var sc []byte
		if scLen > 0 {
			sc = make([]byte, scLen)
			if _, err := held(v).ReadSidecarAt(p, 0, sc); err != nil {
				t.Fatalf("ReadSidecarAt(%s): %v", p, err)
			}
		}
		out[p] = fmt.Sprintf("v%d segs%v data%x sc%x", ver, segs, data, sc)
	}
	return out
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// journalOps is a representative mutation sequence: writes, appends
// (including a file-creating one), a rewrite, and a delete. Sizes
// straddle the sidecar gates so replay must reproduce both gated
// outcomes.
func journalOps(fs *FileSystem) []error {
	big := bytes.Repeat([]byte("3.25\n7.5\n"), 1024) // > sidecarMinBytes
	return []error{
		fs.WriteFile("/data/a", []byte("1\n2\n3\n")),
		fs.WriteFile("/data/big", big),
		fs.Append("/data/a", []byte("4\n5\n")),
		fs.Append("/data/fresh", []byte("9\n")),
		fs.WriteFile("/data/a", []byte("rewritten\n")),
		fs.Delete("/data/fresh"),
		fs.Append("/data/big", bytes.Repeat([]byte("1.5\n"), 20<<10)), // > sidecarAppendMinBytes
	}
}

func TestRecoverReplaysJournal(t *testing.T) {
	cfg := Config{BlockSize: 4 << 10, Replication: 2, DataNodes: 4, Seed: 11}
	fs := New(cfg)
	for i, err := range journalOps(fs) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	want := fsState(t, fs)

	rec, st, err := Recover(cfg, fs.JournalBytes())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.TornTail || st.Commits != 7 {
		t.Fatalf("stats = %+v, want 7 clean commits", st)
	}
	if got := fsState(t, rec); !sameState(got, want) {
		t.Fatalf("recovered state differs:\n got %v\nwant %v", got, want)
	}
	js := rec.JournalStats()
	if !js.Recovered || js.Commits != 7 {
		t.Fatalf("JournalStats = %+v, want recovered with 7 commits", js)
	}
	// The rebuilt journal byte-matches the clean image: recover of a
	// recovery is a fixed point.
	if !bytes.Equal(rec.JournalBytes(), fs.JournalBytes()) {
		t.Fatal("recovered journal image differs from the original")
	}
}

// Crash at every commit point: for each k, the image truncated to k
// commits (and the same image with a torn k+1-th record) must recover to
// exactly the state a fresh filesystem reaches after the first k ops —
// zero torn states, zero half-applied mutations.
func TestRecoverCrashAtEveryCommitPoint(t *testing.T) {
	cfg := Config{BlockSize: 4 << 10, Replication: 2, DataNodes: 4, Seed: 23}
	full := New(cfg)
	for i, err := range journalOps(full) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	nops := 7
	image := full.JournalBytes()
	// The image truncated to k commits is the first k ops' own journal.
	prefix := func(k int) []byte {
		exp := New(cfg)
		journalOpsPrefix(exp, k)
		p := exp.JournalBytes()
		if !bytes.HasPrefix(image, p) {
			t.Fatalf("the first %d ops' journal is not a prefix of the full one", k)
		}
		return p
	}

	for k := 0; k <= nops; k++ {
		// Expected state: run the first k ops on a fresh filesystem.
		exp := New(cfg)
		for i, err := range journalOpsPrefix(exp, k) {
			if err != nil {
				t.Fatalf("k=%d op %d: %v", k, i, err)
			}
		}
		want := fsState(t, exp)

		clean := prefix(k)
		rec, st, err := Recover(cfg, clean)
		if err != nil {
			t.Fatalf("k=%d clean: %v", k, err)
		}
		if st.TornTail || st.Commits != int64(k) {
			t.Fatalf("k=%d clean: stats %+v", k, st)
		}
		if got := fsState(t, rec); !sameState(got, want) {
			t.Fatalf("k=%d clean: state differs\n got %v\nwant %v", k, got, want)
		}

		if k < nops {
			// Torn tail: the clean k-prefix plus half of record k+1.
			next := prefix(k + 1)
			torn := append([]byte(nil), next[:len(clean)+(len(next)-len(clean))/2]...)
			rec, st, err := Recover(cfg, torn)
			if err != nil {
				t.Fatalf("k=%d torn: %v", k, err)
			}
			if !st.TornTail || st.Commits != int64(k) || st.DroppedBytes == 0 {
				t.Fatalf("k=%d torn: stats %+v", k, st)
			}
			if got := fsState(t, rec); !sameState(got, want) {
				t.Fatalf("k=%d torn: state differs", k)
			}
		}
	}
}

// journalOpsPrefix runs only the first k ops of the canonical sequence.
func journalOpsPrefix(fs *FileSystem, k int) []error {
	big := bytes.Repeat([]byte("3.25\n7.5\n"), 1024)
	ops := []func() error{
		func() error { return fs.WriteFile("/data/a", []byte("1\n2\n3\n")) },
		func() error { return fs.WriteFile("/data/big", big) },
		func() error { return fs.Append("/data/a", []byte("4\n5\n")) },
		func() error { return fs.Append("/data/fresh", []byte("9\n")) },
		func() error { return fs.WriteFile("/data/a", []byte("rewritten\n")) },
		func() error { return fs.Delete("/data/fresh") },
		func() error { return fs.Append("/data/big", bytes.Repeat([]byte("1.5\n"), 20<<10)) },
	}
	var errs []error
	for i := 0; i < k && i < len(ops); i++ {
		errs = append(errs, ops[i]())
	}
	return errs
}

func TestRecoverRefusesInteriorCorruption(t *testing.T) {
	cfg := Config{Seed: 3}
	fs := New(cfg)
	for i, err := range journalOps(fs) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	img := fs.JournalBytes()
	img[40] ^= 0xFF // inside the first record
	if _, _, err := Recover(cfg, img); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("interior corruption: err = %v, want journal.ErrCorrupt", err)
	}
}

// An injected crash at commit k leaves a journal image with k-1 durable
// commits (plus a torn frame when TornTail), the filesystem refuses
// further mutations, and Recover lands on the k-1 state.
func TestFaultCrashAtCommit(t *testing.T) {
	for _, torn := range []bool{false, true} {
		cfg := Config{Seed: 5}
		fs := New(cfg)
		fs.SetFaultPlan(&FaultPlan{CrashAtCommit: 3, TornTail: torn})
		if err := fs.WriteFile("/a", []byte("1\n")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Append("/a", []byte("2\n")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/b", []byte("x\n")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn=%v: commit 3 err = %v, want ErrCrashed", torn, err)
		}
		if err := fs.Delete("/a"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn=%v: post-crash mutation err = %v, want ErrCrashed", torn, err)
		}
		rec, st, err := Recover(cfg, fs.JournalBytes())
		if err != nil {
			t.Fatalf("torn=%v: Recover: %v", torn, err)
		}
		if st.Commits != 2 || st.TornTail != torn {
			t.Fatalf("torn=%v: stats %+v", torn, st)
		}
		data, err := rec.ReadFile("/a")
		if err != nil || string(data) != "1\n2\n" {
			t.Fatalf("torn=%v: /a = %q, %v", torn, data, err)
		}
		if exists(rec, "/b") {
			t.Fatalf("torn=%v: /b must not survive the crash", torn)
		}
	}
}

// Snapshot isolation: a pinned snapshot keeps reading the exact
// pre-mutation world — bytes, size, segments, version, splits, sidecar —
// through rewrites, appends and deletes, while the live view moves on.
func TestSnapshotIsolation(t *testing.T) {
	cfg := Config{BlockSize: 1 << 10, Replication: 2, DataNodes: 3, Seed: 9}
	fs := New(cfg)
	orig := bytes.Repeat([]byte("1.5\n2.5\n"), 1024)
	if err := fs.WriteFile("/d", orig); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/gone", []byte("bye\n")); err != nil {
		t.Fatal(err)
	}
	snap := fs.Pin(fs.metrics)
	defer snap.Release()
	wantVer, _ := fs.Version("/d")
	wantSplits, _ := fs.Splits("/d", 0)
	wantState := fsState(t, snap)

	// Mutate everything under the snapshot.
	if err := fs.Append("/d", bytes.Repeat([]byte("9.0\n"), 512)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d", []byte("tiny\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/gone"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/new", []byte("fresh\n")); err != nil {
		t.Fatal(err)
	}

	// The snapshot still reads the old world.
	if got := fsState(t, snap); !sameState(got, wantState) {
		t.Fatalf("snapshot drifted:\n got %v\nwant %v", got, wantState)
	}
	if got, err := snap.ReadFile("/d"); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("snap /d = %d bytes, %v", len(got), err)
	}
	if v, _ := snap.Version("/d"); v != wantVer {
		t.Fatalf("snap version = %d, want %d", v, wantVer)
	}
	if sp, _ := snap.Splits("/d", 0); len(sp) != len(wantSplits) {
		t.Fatalf("snap splits = %d, want %d", len(sp), len(wantSplits))
	}
	if exists(snap, "/new") {
		t.Fatal("snapshot sees a file created after the pin")
	}
	if !exists(snap, "/gone") {
		t.Fatal("snapshot lost a file deleted after the pin")
	}
	// Line readers through the snapshot see old bytes.
	sp, _ := snap.Splits("/d", 0)
	var n int64
	for _, s := range sp {
		rd, err := snap.NewLineReader(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		for rd.Next() {
			n++
		}
		if rd.Err() != nil {
			t.Fatal(rd.Err())
		}
	}
	if n != 2048 {
		t.Fatalf("snapshot line count = %d, want 2048", n)
	}

	// Live view sees the new world.
	if got, _ := fs.ReadFile("/d"); string(got) != "tiny\n" {
		t.Fatalf("live /d = %q", got)
	}
	if exists(fs, "/gone") {
		t.Fatal("live view resurrects a deleted file")
	}

	// Release takes the snapshot out of the pin count.
	snap.Release()
	if js := fs.JournalStats(); js.Pins != 0 {
		t.Fatalf("pins after release = %d", js.Pins)
	}
}

// Transient injected read errors are absorbed by the retry path: with a
// moderate fault rate every read still succeeds, returns identical
// bytes, and the filesystem never surfaces the fault.
func TestInjectedReadErrorsRetried(t *testing.T) {
	fs := New(Config{BlockSize: 256, Replication: 2, DataNodes: 3, Seed: 17})
	data := bytes.Repeat([]byte("42\n"), 1024)
	if err := fs.WriteFile("/f", data); err != nil {
		t.Fatal(err)
	}
	clean, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFaultPlan(&FaultPlan{Seed: 99, ReadErrorRate: 0.3})
	for i := 0; i < 8; i++ {
		got, err := fs.ReadFile("/f")
		if err != nil {
			t.Fatalf("read %d under faults: %v", i, err)
		}
		if !bytes.Equal(got, clean) {
			t.Fatalf("read %d under faults returned different bytes", i)
		}
	}
	fs.SetFaultPlan(nil)
	if _, err := fs.ReadFile("/f"); err != nil {
		t.Fatalf("read after clearing faults: %v", err)
	}
}

// TestReadFaultSeedsIndependent: nearby plan seeds inject unrelated
// faults. At rate 0.5 over blocks 0–59 and attempts 0–5, independent
// seeds disagree on about half of the 360 (block, attempt) outcomes;
// every pair of seeds 1–8 must disagree on at least a quarter.
func TestReadFaultSeedsIndependent(t *testing.T) {
	const blocks, attempts = 60, 6
	outcomes := make([][]bool, 9)
	for seed := 1; seed <= 8; seed++ {
		fp := &FaultPlan{Seed: uint64(seed), ReadErrorRate: 0.5}
		for b := range blocks {
			for a := range attempts {
				outcomes[seed] = append(outcomes[seed], fp.readErrorFires(int64(b), a))
			}
		}
	}
	for s1 := 1; s1 <= 8; s1++ {
		for s2 := s1 + 1; s2 <= 8; s2++ {
			differ := 0
			for i, f := range outcomes[s1] {
				if f != outcomes[s2][i] {
					differ++
				}
			}
			if 4*differ < blocks*attempts {
				t.Errorf("seeds %d and %d differ in %d of %d outcomes, want at least a quarter", s1, s2, differ, blocks*attempts)
			}
		}
	}
}

// A read whose block has no live replica exhausts the retry budget and
// fails with the errors.Is-able ErrNoReplica sentinel.
func TestErrNoReplicaSentinel(t *testing.T) {
	fs := New(Config{BlockSize: 8, Replication: 1, DataNodes: 1, Seed: 7})
	if err := fs.WriteFile("/f", []byte("0123456789\n")); err != nil {
		t.Fatal(err)
	}
	fs.KillDataNode(0)
	_, err := fs.ReadFile("/f")
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
}
