package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The race documents: every line is "<write tag>.<line index>\n", fixed
// width and numeric (so files grow sidecars), which lets a reader that
// shares nothing with the writer decide from the bytes alone whether
// what it read is one committed state: every line carries the same
// write tag, sits at the offset its index says, and the line count is
// one a commit produced.
const raceLineWidth = 14

func raceDoc(tag, from, n int) []byte {
	var buf bytes.Buffer
	for g := from; g < from+n; g++ {
		fmt.Fprintf(&buf, "%05d.%07d\n", tag, g)
	}
	return buf.Bytes()
}

// raceBaseLines is how many lines write tag starts with (enough for a
// sidecar); raceAppendLines how many append j adds — every fourth one
// is large enough to extend the sidecar.
func raceBaseLines(tag int) int { return 400 + tag%5*10 }

func raceAppendLines(j int) int {
	if j%4 == 3 {
		return 4700
	}
	return 25
}

// raceTag parses the write tag of the line at the start of b.
func raceTag(b []byte) (int, error) {
	var tag, g int
	if len(b) < raceLineWidth {
		return 0, fmt.Errorf("line %q is short", b)
	}
	if _, err := fmt.Sscanf(string(b[:raceLineWidth]), "%05d.%07d\n", &tag, &g); err != nil {
		return 0, fmt.Errorf("line %q: %v", b[:raceLineWidth], err)
	}
	return tag, nil
}

// checkRaceLine verifies that line is one whole line in its place.
func checkRaceLine(line []byte, off int64) error {
	if len(line) != raceLineWidth-1 {
		return fmt.Errorf("record %q at offset %d is not one line", line, off)
	}
	return checkRaceRange(append(append([]byte(nil), line...), '\n'), off)
}

// checkRaceRange verifies that data, read at line-aligned offset off,
// is a run of lines of one write in their places.
func checkRaceRange(data []byte, off int64) error {
	if off%raceLineWidth != 0 {
		return fmt.Errorf("offset %d is not line-aligned", off)
	}
	n := len(data) / raceLineWidth
	if n == 0 {
		return nil
	}
	tag, err := raceTag(data)
	if err != nil {
		return err
	}
	if want := raceDoc(tag, int(off/raceLineWidth), n); !bytes.Equal(data[:n*raceLineWidth], want) {
		return fmt.Errorf("%d lines at offset %d are not lines of write %d alone", n, off, tag)
	}
	return nil
}

// checkRaceWhole verifies that data is one committed state, whole: the
// lines of one write from index 0, as many as that write plus some
// number of its appends hold.
func checkRaceWhole(data []byte) error {
	if len(data)%raceLineWidth != 0 || len(data) == 0 {
		return fmt.Errorf("%d bytes is not a whole number of lines", len(data))
	}
	if err := checkRaceRange(data, 0); err != nil {
		return err
	}
	tag, _ := raceTag(data)
	lines, committed := len(data)/raceLineWidth, raceBaseLines(tag)
	for j := 0; committed < lines; j++ {
		committed += raceAppendLines(j)
	}
	if committed != lines {
		return fmt.Errorf("%d lines of write %d: no commit left that many", lines, tag)
	}
	return nil
}

// viewRead is what one pass over every method of View returned for one
// path.
type viewRead struct {
	data     []byte
	size     int64
	version  int64
	segments []int64
	lines    int64
	splits   []Split
}

// readEveryMethod calls every method of View for path. whole reports
// whether the path's state can be trusted to hold still between calls
// (a snapshot, or a filesystem nobody writes to): the calls are then
// also held to agree with each other. Without it each call is checked
// alone, and a path that vanishes or shrinks between calls is not an
// error.
func readEveryMethod(v View, path string, rng *rand.Rand, whole bool) (viewRead, error) {
	var r viewRead
	gone := func(err error) bool { return !whole && errors.Is(err, ErrNotFound) }
	var err error
	if r.data, err = held(v).ReadFile(path); err != nil {
		if gone(err) {
			return r, nil
		}
		return r, fmt.Errorf("ReadFile: %w", err)
	}
	if err := checkRaceWhole(r.data); err != nil {
		return r, fmt.Errorf("ReadFile: %w", err)
	}
	if r.size, err = v.Stat(path); err != nil && !gone(err) {
		return r, fmt.Errorf("Stat: %w", err)
	}
	if r.version, err = v.Version(path); err != nil && !gone(err) {
		return r, fmt.Errorf("Version: %w", err)
	}
	st, err := v.State(path)
	if err != nil && !gone(err) {
		return r, fmt.Errorf("State: %w", err)
	}
	if whole && st != (FileState{Version: r.version, Size: r.size}) {
		return r, fmt.Errorf("State %+v beside Version %d and Stat %d", st, r.version, r.size)
	}
	if r.segments, err = segments(v, path); err != nil && !gone(err) {
		return r, fmt.Errorf("segments: %w", err)
	}
	if r.lines, err = countLines(v, path); err != nil && !gone(err) {
		return r, fmt.Errorf("countLines: %w", err)
	}
	if whole {
		if !exists(v, path) || !slices.Contains(held(v).List("/r/"), path) {
			return r, errors.New("exists/List: a readable path is not listed")
		}
		if r.size != int64(len(r.data)) || r.lines != r.size/raceLineWidth {
			return r, fmt.Errorf("Stat %d, countLines %d for a file of %d bytes", r.size, r.lines, len(r.data))
		}
	} else {
		exists(v, path)
		held(v).List("/r/")
	}

	// Positioned reads.
	var linePos, lineStart []int64
	for i := 0; i < 4; i++ {
		off := rng.Int64N(int64(len(r.data))/raceLineWidth) * raceLineWidth
		p := make([]byte, 40*raceLineWidth)
		n, err := v.ReadAt(path, off, p)
		if err != nil && !gone(err) {
			return r, fmt.Errorf("ReadAt(%d): %w", off, err)
		}
		if err := checkRaceRange(p[:n], off); err != nil {
			return r, fmt.Errorf("ReadAt(%d): %w", off, err)
		}
		if whole && !bytes.Equal(p[:n], r.data[off:off+int64(n)]) {
			return r, fmt.Errorf("ReadAt(%d) differs from ReadFile", off)
		}
		pos := off + rng.Int64N(raceLineWidth)
		line, start, err := held(v).ReadLineAt(path, pos, 8)
		if err != nil {
			if gone(err) {
				continue
			}
			return r, fmt.Errorf("ReadLineAt(%d): %w", pos, err)
		}
		if err := checkRaceLine([]byte(line), start); err != nil {
			return r, fmt.Errorf("ReadLineAt(%d): %w", pos, err)
		}
		if whole && start != off {
			return r, fmt.Errorf("ReadLineAt(%d) starts at %d, want %d", pos, start, off)
		}
		linePos, lineStart = append(linePos, pos), append(lineStart, start)
	}
	// The same positions as one gather. It serves one file state, so its
	// records are lines of one write; where the path holds still they
	// are the records the single reads returned.
	tag := -1
	err = v.ReadLinesAt(path, linePos, 8, func(i int, line []byte, start int64, err error) (bool, error) {
		if err != nil {
			return false, fmt.Errorf("position %d: %w", linePos[i], err)
		}
		if err := checkRaceLine(line, start); err != nil {
			return false, fmt.Errorf("position %d: %w", linePos[i], err)
		}
		t, _ := raceTag(append(append([]byte(nil), line...), '\n'))
		if tag >= 0 && t != tag {
			return false, fmt.Errorf("records of writes %d and %d in one gather", tag, t)
		}
		tag = t
		if whole && start != lineStart[i] {
			return false, fmt.Errorf("position %d starts at %d, ReadLineAt said %d", linePos[i], start, lineStart[i])
		}
		return true, nil
	})
	if err != nil && !gone(err) {
		return r, fmt.Errorf("ReadLinesAt: %w", err)
	}

	// Splits and line readers: a reader serves one file state from open
	// to end, so the records of a split are lines of one write.
	if r.splits, err = v.Splits(path, 5000); err != nil && !gone(err) {
		return r, fmt.Errorf("Splits: %w", err)
	}
	var records int64
	for _, sp := range r.splits {
		rd, err := v.NewLineReader(sp, 700)
		if err != nil {
			if !whole { // the file vanished or shrank under the split
				continue
			}
			return r, fmt.Errorf("NewLineReader(%v): %w", sp, err)
		}
		tag := -1
		for rd.Next() {
			records++
			if err := checkRaceLine(rd.Bytes(), rd.RecordOffset()); err != nil {
				return r, fmt.Errorf("LineReader(%v): %w", sp, err)
			}
			t, _ := raceTag(append(append([]byte(nil), rd.Bytes()...), '\n'))
			if tag >= 0 && t != tag {
				return r, fmt.Errorf("LineReader(%v): records of writes %d and %d", sp, tag, t)
			}
			tag = t
		}
		if rd.Err() != nil {
			return r, fmt.Errorf("LineReader(%v): %w", sp, rd.Err())
		}
	}
	if whole && records != r.lines {
		return r, fmt.Errorf("line readers delivered %d records of %d", records, r.lines)
	}

	// Sidecar reads. The live sidecar may be replaced at any moment
	// (Compact, the fault hooks), also under a snapshot that shares the
	// live state, so one call says nothing about the next: each is held
	// to its own bounds.
	if size, ok := v.SidecarStat(path); ok && size > 0 {
		b, err := v.ViewSidecarAt(path, size/3, size/2)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return r, fmt.Errorf("ViewSidecarAt: %w", err)
		}
		p := make([]byte, size/2)
		n, err := held(v).ReadSidecarAt(path, size/3, p)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return r, fmt.Errorf("ReadSidecarAt: %w", err)
		}
		if int64(len(b)) > size/2 || n > len(p) {
			return r, fmt.Errorf("sidecar reads of %d bytes returned %d and %d", size/2, len(b), n)
		}
	}
	return r, nil
}

// TestViewNeverTakesTheCommitLock holds the writers' mutex and calls
// every method of View on the live filesystem, on a snapshot taken
// beforehand and on one taken — and released — under the lock: a read,
// a Snapshot or a Release that waited for the lock would never return.
func TestViewNeverTakesTheCommitLock(t *testing.T) {
	fs := New(Config{BlockSize: 16 << 10, Replication: 2, DataNodes: 4, Seed: 5})
	if err := fs.WriteFile("/r/a", raceDoc(1, 0, raceBaseLines(1))); err != nil {
		t.Fatal(err)
	}
	snap := fs.Pin(fs.metrics)
	defer snap.Release()
	for j := 0; j < 4; j++ {
		from := raceBaseLines(1)
		for k := 0; k < j; k++ {
			from += raceAppendLines(k)
		}
		if err := fs.Append("/r/a", raceDoc(1, from, raceAppendLines(j))); err != nil {
			t.Fatal(err)
		}
	}
	if size, ok := fs.SidecarStat("/r/a"); !ok || size == 0 {
		t.Fatal("fixture has no sidecar to read")
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	done := make(chan error, 3)
	for _, v := range []View{fs, snap} {
		go func() {
			_, err := readEveryMethod(v, "/r/a", rand.New(rand.NewPCG(1, 2)), true)
			done <- err
		}()
	}
	go func() {
		held := fs.Pin(fs.metrics)
		r, err := readEveryMethod(held, "/r/a", rand.New(rand.NewPCG(1, 2)), true)
		held.Release()
		if err == nil && (held.ns.seq != 5 || len(r.segments) != 5) {
			err = fmt.Errorf("%v taken under the lock reads %d segments, want commit 5's 5", held, len(r.segments))
		}
		done <- err
	}()
	deadline := time.After(30 * time.Second)
	for range 3 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("a View method, Snapshot or Release waited for the commit lock")
		}
	}
	if pins := fs.pins.Load(); pins != 1 {
		t.Fatalf("%d pins under the lock, want the one snapshot still held", pins)
	}
	if fs.ns.Load().seq != 5 || len(fs.LiveDataNodes()) != 4 {
		t.Fatalf("commit %d, %d live nodes under the lock", fs.ns.Load().seq, len(fs.LiveDataNodes()))
	}
}

// TestReadersRaceCommits loops every method of View on the live view
// and on pinned snapshots while another goroutine commits, kills and
// revives nodes, compacts and damages sidecars and swaps the fault
// plan. Every pinned read must equal the bytes captured when the pin
// was taken; every live read must be one committed state, whole.
// Under -race it is also the proof that nothing a reader reaches is
// written in place.
func TestReadersRaceCommits(t *testing.T) {
	fs := New(Config{BlockSize: 16 << 10, Replication: 2, DataNodes: 4, Seed: 9})
	paths := []string{"/r/a", "/r/b"}
	for i, p := range paths {
		if err := fs.WriteFile(p, raceDoc(i+1, 0, raceBaseLines(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	cycles := 240
	if testing.Short() {
		cycles = 60
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
		stop.Store(true)
	}

	// Live readers.
	var liveReads, pinnedReads atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 77))
			for !stop.Load() {
				for _, p := range paths {
					if _, err := readEveryMethod(fs, p, rng, false); err != nil {
						report(fmt.Errorf("live %s: %w", p, err))
						return
					}
					liveReads.Add(1)
				}
			}
		}()
	}
	// Pinned readers: capture at pin time, then read again and again
	// while commits land.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for !stop.Load() {
				snap := fs.Pin(fs.metrics)
				listed := snap.List("/r/")
				captured := map[string]viewRead{}
				for _, p := range listed {
					r, err := readEveryMethod(snap, p, rng, true)
					if err != nil {
						report(fmt.Errorf("%v %s at pin time: %w", snap, p, err))
						snap.Release()
						return
					}
					captured[p] = r
				}
				for i := 0; i < 6 && !stop.Load(); i++ {
					if got := snap.List("/r/"); strings.Join(got, " ") != strings.Join(listed, " ") {
						report(fmt.Errorf("%v lists %v, listed %v when pinned", snap, got, listed))
					}
					for p, want := range captured {
						got, err := readEveryMethod(snap, p, rng, true)
						if err != nil {
							report(fmt.Errorf("%v %s: %w", snap, p, err))
							break
						}
						if !bytes.Equal(got.data, want.data) || got.version != want.version ||
							fmt.Sprint(got.segments, got.splits) != fmt.Sprint(want.segments, want.splits) {
							report(fmt.Errorf("%v %s: a pinned read changed (%d bytes v%d, pinned %d bytes v%d)",
								snap, p, len(got.data), got.version, len(want.data), want.version))
						}
						pinnedReads.Add(1)
					}
					runtime.Gosched()
				}
				snap.Release()
			}
		}()
	}

	// The writer.
	tag, appends, bExists := 1, 0, true
	lines := raceBaseLines(tag)
	for i := 0; i < cycles && !stop.Load(); i++ {
		var err error
		if i%10 == 9 { // rewrite /r/a
			tag, appends = 100+i, 0
			lines = raceBaseLines(tag)
			err = fs.WriteFile("/r/a", raceDoc(tag, 0, lines))
		} else {
			n := raceAppendLines(appends)
			err = fs.Append("/r/a", raceDoc(tag, lines, n))
			appends++
			lines += n
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i%3 == 2 { // /r/b comes and goes
			if bExists {
				err = fs.Delete("/r/b")
			} else {
				err = fs.WriteFile("/r/b", raceDoc(9000+i, 0, raceBaseLines(9000+i)))
			}
			bExists = !bExists
			if err != nil {
				t.Fatalf("cycle %d: /r/b: %v", i, err)
			}
		}
		switch i % 12 {
		case 0:
			err = fs.KillDataNode(i / 12 % 4)
		case 5:
			err = fs.ReviveDataNode(i / 12 % 4)
		case 6:
			_, err = fs.Compact("/r/a")
		case 7:
			fs.CorruptSidecarByte("/r/a", int64(30+i))
		case 10:
			fs.TruncateSidecar("/r/a", int64(200+i))
		case 1:
			fs.SetFaultPlan(&FaultPlan{Seed: uint64(i), ReadErrorRate: 0.02, SlowNodes: []int{i % 4}, SlowDelay: time.Microsecond})
		case 9:
			fs.SetFaultPlan(nil)
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		fs.JournalStats()
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if liveReads.Load() == 0 || pinnedReads.Load() == 0 {
		t.Fatalf("%d live and %d pinned passes: the readers never ran beside the writer", liveReads.Load(), pinnedReads.Load())
	}
	if pins := fs.JournalStats().Pins; pins != 0 {
		t.Fatalf("%d pins left", pins)
	}
}

// TestPayloadIsTheJournalFrame pins the one-copy contract from the
// caller's side: an ingested byte is allocated once (the journal frame,
// which the block payloads are slices of), and the caller's slice is
// its own again the moment the call returns.
func TestPayloadIsTheJournalFrame(t *testing.T) {
	fs := New(Config{BlockSize: 64 << 10, Replication: 2, DataNodes: 4, Seed: 3, DisableSidecars: true})
	base := lineDoc("a", 1000)
	if err := fs.WriteFile("/f", base); err != nil {
		t.Fatal(err)
	}
	batch := lineDoc("b", 128<<10) // 1 MiB, sixteen blocks
	want := append(append([]byte(nil), base...), batch...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := fs.Append("/f", batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(batch))*3/2; got > limit {
		t.Fatalf("appending %d bytes allocated %d: more than one copy", len(batch), got)
	}

	image := fs.JournalBytes()
	for i := range batch {
		batch[i] = 'x'
	}
	for i := range base {
		base[i] = 'y'
	}
	got, err := fs.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mutating the caller's slices after the call changed the file")
	}
	if !bytes.Equal(fs.JournalBytes(), image) {
		t.Fatal("mutating the caller's slices after the call changed the journal image")
	}
	// And the other way round: what a read returns is the reader's own.
	for i := range got {
		got[i] = 'z'
	}
	if again, _ := fs.ReadFile("/f"); !bytes.Equal(again, want) {
		t.Fatal("mutating a ReadFile result changed the file")
	}
	back, _, err := Recover(Config{BlockSize: 64 << 10, Replication: 2, DataNodes: 4, Seed: 3, DisableSidecars: true}, image)
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := back.ReadFile("/f"); !bytes.Equal(rec, want) {
		t.Fatal("the journal image does not replay to the file")
	}

	// A torn-tail crash cuts a frame no block was cut from.
	fs.SetFaultPlan(&FaultPlan{CrashAtCommit: fs.ns.Load().seq + 1, TornTail: true})
	if err := fs.Append("/f", lineDoc("c", 100)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash commit: %v", err)
	}
	if again, _ := fs.ReadFile("/f"); !bytes.Equal(again, want) {
		t.Fatal("the torn frame reached the file")
	}
}
