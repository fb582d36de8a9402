package dfs

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReleasedSnapshotStillReads pins that a snapshot is a value:
// released, and with its paths since rewritten, deleted and appended
// to, it still returns its own commit's bytes, splits, versions and
// sidecar views.
func TestReleasedSnapshotStillReads(t *testing.T) {
	fs := New(Config{BlockSize: 16 << 10, Replication: 2, DataNodes: 4, Seed: 6})
	paths := []string{"/r/rewritten", "/r/deleted", "/r/appended"}
	for i, p := range paths {
		if err := fs.WriteFile(p, raceDoc(i+1, 0, raceBaseLines(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(3, 4))
	snap := fs.Snapshot()
	held, sidecars := map[string]viewRead{}, map[string][]byte{}
	for _, p := range paths {
		r, err := readEveryMethod(snap, p, rng, true)
		if err != nil {
			t.Fatalf("%s before release: %v", p, err)
		}
		held[p], sidecars[p] = r, viewBytes(t, snap, p)
	}
	snap.Release()
	snap.Release() // idempotent
	if pins := fs.JournalStats().Pins; pins != 0 {
		t.Fatalf("%d pins after release", pins)
	}

	if err := fs.WriteFile(paths[0], raceDoc(50, 0, raceBaseLines(50))); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(paths[1]); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ { // the fourth append extends the sidecar
		from := len(held[paths[2]].data) / raceLineWidth
		for k := 0; k < j; k++ {
			from += raceAppendLines(k)
		}
		if err := fs.Append(paths[2], raceDoc(3, from, raceAppendLines(j))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()

	if got := fmt.Sprint(snap.List("/r/")); got != "[/r/appended /r/deleted /r/rewritten]" {
		t.Fatalf("released snapshot lists %s", got)
	}
	for _, p := range paths {
		got, err := readEveryMethod(snap, p, rng, true)
		if err != nil {
			t.Fatalf("%s after release: %v", p, err)
		}
		want := held[p]
		if !bytes.Equal(got.data, want.data) || got.version != want.version ||
			fmt.Sprint(got.segments, got.splits) != fmt.Sprint(want.segments, want.splits) {
			t.Errorf("%s: the released snapshot reads %d bytes v%d %v, held %d bytes v%d %v",
				p, len(got.data), got.version, got.segments, len(want.data), want.version, want.segments)
		}
		if !bytes.Equal(viewBytes(t, snap, p), sidecars[p]) {
			t.Errorf("%s: the released snapshot's sidecar view changed", p)
		}
	}
	if live, _ := fs.Stat(paths[2]); live <= held[paths[2]].size || exists(fs, paths[1]) {
		t.Fatal("the live filesystem did not move on")
	}
}

// TestSnapshotsRaceCommits takes, reads and releases snapshots from
// eight goroutines beside a writer that writes, appends, deletes and
// recreates: every snapshot read is one committed state whole, taking
// and releasing never waits for (or trips) a commit, and no pin is left.
func TestSnapshotsRaceCommits(t *testing.T) {
	fs := New(Config{BlockSize: 4 << 10, Replication: 2, DataNodes: 4, Seed: 12})
	paths := []string{"/r/a", "/r/b"}
	const readers, rounds, commits = 8, 2000, 500

	var wg sync.WaitGroup
	var beside atomic.Int64 // snapshots taken while the writer was at work
	fail := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := fs.Snapshot()
				path := paths[(w+i)%len(paths)]
				data, err := snap.ReadFile(path)
				size, _ := snap.Stat(path)
				present := exists(snap, path)
				snap.Release()
				if seq := snap.Seq(); seq > 0 && seq < commits {
					beside.Add(1)
				}
				if !present && err != nil {
					continue // deleted as of this commit
				}
				if err == nil {
					err = checkRaceWhole(data)
				}
				if err == nil && (size != int64(len(data)) || !present) {
					err = fmt.Errorf("Stat %d, exists %v beside %d bytes read", size, present, len(data))
				}
				if err != nil {
					fail <- fmt.Errorf("%v %s: %w", snap, path, err)
					return
				}
			}
		}()
	}

	// The writer: per path a write, two appends, a delete, then the write
	// that recreates it; one commit in three lands under a snapshot the
	// writer itself holds, so some commits supersede held state for sure.
	var held *Snapshot
	for i := 0; i < commits; i++ {
		if i%3 == 0 {
			held = fs.Snapshot()
		}
		path, step, tag := paths[i%2], i/2%4, 1+i/8
		var err error
		switch step {
		case 0:
			err = fs.WriteFile(path, raceDoc(tag, 0, raceBaseLines(tag)))
		case 1:
			err = fs.Append(path, raceDoc(tag, raceBaseLines(tag), raceAppendLines(0)))
		case 2:
			err = fs.Append(path, raceDoc(tag, raceBaseLines(tag)+raceAppendLines(0), raceAppendLines(1)))
		case 3:
			err = fs.Delete(path)
		}
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if i%3 == 2 {
			held.Release()
		}
		runtime.Gosched()
	}
	held.Release()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the snapshot readers did not finish")
	}
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if beside.Load() == 0 {
		t.Fatal("no snapshot was taken while the writer committed")
	}
	if pins := fs.JournalStats().Pins; pins != 0 {
		t.Fatalf("%d pins left", pins)
	}
}

// heldSnapshot makes a snapshot escape, as one handed to a reader does.
var heldSnapshot *Snapshot

// TestSnapshotAllocatesOnlyItself pins what taking a snapshot costs:
// the Snapshot struct, nothing per path, per version or per pin.
func TestSnapshotAllocatesOnlyItself(t *testing.T) {
	fs := New(Config{BlockSize: 4 << 10, Replication: 2, DataNodes: 4, Seed: 2})
	for i := 0; i < 20; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/d/%02d", i), numericLines(50, i)); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		heldSnapshot = fs.Snapshot()
		heldSnapshot.Release()
	})
	if n != 1 {
		t.Fatalf("Snapshot+Release allocate %v objects, want 1", n)
	}
	if pins := fs.JournalStats().Pins; pins != 0 {
		t.Fatalf("%d pins left", pins)
	}
}
