package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/simcost"
)

// copyingReadLineAt is the reference ReadLineAt: the window-copying loop
// as it stood before readLineAt learned to resolve a record inside the
// replica's bytes, written against the public View surface (Stat +
// positioned ReadAt, one charged seek per window). The differential
// tests below hold the production path to it byte position by byte
// position — record, start offset, error and modelled cost.
func copyingReadLineAt(v View, path string, pos int64, chunkSize int) (string, int64, error) {
	size, err := v.Stat(path)
	if err != nil {
		return "", 0, err
	}
	if size == 0 {
		return "", 0, io.EOF
	}
	if pos < 0 {
		pos = 0
	}
	if pos >= size {
		pos = size - 1
	}
	if chunkSize <= 0 {
		chunkSize = 256
	}
	back, fwd := int64(chunkSize), int64(chunkSize)
	for {
		lo := max(pos-back, 0)
		hi := min(pos+fwd, size)
		buf := make([]byte, hi-lo)
		if _, err := v.ReadAt(path, lo, buf); err != nil {
			return "", 0, err
		}
		rel := pos - lo
		start := int64(0)
		if i := bytes.LastIndexByte(buf[:rel], '\n'); i >= 0 {
			start = int64(i) + 1
		} else if lo > 0 {
			back *= 4
			continue
		}
		end := int64(len(buf))
		terminated := false
		if i := bytes.IndexByte(buf[rel:], '\n'); i >= 0 {
			end = rel + int64(i)
			terminated = true
		}
		if !terminated && hi < size {
			fwd *= 4
			continue
		}
		return string(buf[start:end]), lo + start, nil
	}
}

// linesOfMixedLength builds about n bytes of newline-terminated records
// whose lengths range from empty to several times the widest window the
// tests read with.
func linesOfMixedLength(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var out []byte
	for len(out) < n {
		l := rng.IntN(24)
		switch rng.IntN(12) {
		case 0:
			l = 0
		case 1:
			l = 200 + rng.IntN(1400) // longer than any window below
		}
		for i := 0; i < l; i++ {
			out = append(out, byte('a'+rng.IntN(26)))
		}
		out = append(out, '\n')
	}
	return out
}

// readLineTwin is two filesystems built by the same calls from the same
// seed, each with its own cost sink: the reference runs on one, the
// production path on the other, so read ticks, replica choices and
// injected faults line up call for call.
type readLineTwin struct {
	ref, got   *FileSystem
	refM, gotM *simcost.Metrics
}

func newReadLineTwin(cfg Config) *readLineTwin {
	tw := &readLineTwin{refM: &simcost.Metrics{}, gotM: &simcost.Metrics{}}
	cfg.Metrics = tw.refM
	tw.ref = New(cfg)
	cfg.Metrics = tw.gotM
	tw.got = New(cfg)
	return tw
}

func (tw *readLineTwin) each(t *testing.T, fn func(fs *FileSystem) error) {
	t.Helper()
	for _, fs := range []*FileSystem{tw.ref, tw.got} {
		if err := fn(fs); err != nil {
			t.Fatal(err)
		}
	}
}

// compare reads the record at every byte position of path (and one
// position either side of the file) through both paths and requires the
// same line, start, error, cost counters and read tick after each call.
// view maps a filesystem to the View read through (itself or a snapshot).
func (tw *readLineTwin) compare(t *testing.T, label, path string, chunks []int, view func(*FileSystem) View) {
	t.Helper()
	refV, gotV := view(tw.ref), view(tw.got)
	size, err := refV.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range chunks {
		for pos := int64(-1); pos <= size; pos++ {
			wl, ws, werr := copyingReadLineAt(refV, path, pos, chunk)
			gl, gs, gerr := held(gotV).ReadLineAt(path, pos, chunk)
			where := fmt.Sprintf("%s chunk=%d pos=%d", label, chunk, pos)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: err %v, reference %v", where, gerr, werr)
			}
			if gl != wl || gs != ws {
				t.Fatalf("%s: (%q, %d), reference (%q, %d)", where, gl, gs, wl, ws)
			}
			if g, w := tw.gotM.Snapshot(), tw.refM.Snapshot(); g != w {
				t.Fatalf("%s: modelled cost %+v, reference %+v", where, g, w)
			}
			if g, w := tw.got.readTick.Load(), tw.ref.readTick.Load(); g != w {
				t.Fatalf("%s: read tick %d, reference %d", where, g, w)
			}
		}
	}
}

// compareBatch holds ReadLinesAt to the loop of single reads it stands
// for: every byte position of path (and one either side), shuffled, as
// one batch on the production filesystem, while the reference makes the
// same reads one copyingReadLineAt at a time on its twin. Inside the
// callback for position i — after the batch has read it, and after it
// has touched positions it has not read yet — line, start, error and
// read tick must equal the reference's after its i-th call: the
// touch-ahead ticks nothing and asks no replica. The batch's ledger
// does not move until the walk ends; then it holds what the
// reference's i calls charged, so an early stop charges nothing for
// the positions it did not reach.
func (tw *readLineTwin) compareBatch(t *testing.T, label, path string, chunks []int, view func(*FileSystem) View) {
	t.Helper()
	refV, gotV := view(tw.ref), view(tw.got)
	size, err := refV.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]int64, 0, size+2)
	for pos := int64(-1); pos <= size; pos++ {
		positions = append(positions, pos)
	}
	rand.New(rand.NewPCG(uint64(size), 0xba7c4)).Shuffle(len(positions), func(i, j int) {
		positions[i], positions[j] = positions[j], positions[i]
	})
	for _, chunk := range chunks {
		stopAt := len(positions) * 2 / 3
		calls := 0
		before := tw.gotM.Snapshot()
		err := gotV.ReadLinesAt(path, positions, chunk, func(i int, gl []byte, gs int64, gerr error) (bool, error) {
			if i != calls {
				t.Fatalf("%s chunk=%d: callback %d carries index %d", label, chunk, calls, i)
			}
			calls++
			wl, ws, werr := copyingReadLineAt(refV, path, positions[i], chunk)
			where := fmt.Sprintf("%s chunk=%d batch[%d] pos=%d", label, chunk, i, positions[i])
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: err %v, reference %v", where, gerr, werr)
			}
			if string(gl) != wl || gs != ws {
				t.Fatalf("%s: (%q, %d), reference (%q, %d)", where, gl, gs, wl, ws)
			}
			if g := tw.gotM.Snapshot(); g != before {
				t.Fatalf("%s: modelled cost moved mid-walk to %+v from %+v", where, g, before)
			}
			if g, w := tw.got.readTick.Load(), tw.ref.readTick.Load(); g != w {
				t.Fatalf("%s: read tick %d, reference %d", where, g, w)
			}
			return i+1 < stopAt, nil
		})
		if err != nil {
			t.Fatalf("%s chunk=%d: ReadLinesAt: %v", label, chunk, err)
		}
		if calls != stopAt {
			t.Fatalf("%s chunk=%d: %d callbacks before the stop at %d", label, chunk, calls, stopAt)
		}
		// Stopped a third short: nothing was read, charged or ticked for
		// the rest.
		if g, w := tw.gotM.Snapshot(), tw.refM.Snapshot(); g != w {
			t.Fatalf("%s chunk=%d: modelled cost %+v after the stop, reference %+v", label, chunk, g, w)
		}
		if g, w := tw.got.readTick.Load(), tw.ref.readTick.Load(); g != w {
			t.Fatalf("%s chunk=%d: read tick %d after the stop, reference %d", label, chunk, g, w)
		}
	}
}

func liveView(fs *FileSystem) View { return fs }

// TestReadLineAtMatchesCopyingLoop is the differential test of the
// in-place positioned read, one position at a time (compare) and as an
// ordered batch (compareBatch): every byte position of multi-block
// files at block sizes 64…4096 — variable-length records, records
// longer than the window (several growths either way), windows that
// straddle a block, no trailing newline, after an Append, through a
// Snapshot that a later rewrite must not reach, and the empty file.
func TestReadLineAtMatchesCopyingLoop(t *testing.T) {
	for _, bs := range []int64{64, 100, 256, 1024, 4096} {
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			tw := newReadLineTwin(Config{BlockSize: bs, Replication: 2, DataNodes: 4, Seed: 5})
			chunks := []int{0, 5, 48}
			body := linesOfMixedLength(int(3*bs)+37, uint64(bs))
			tw.each(t, func(fs *FileSystem) error { return fs.WriteFile("/f", body) })
			tw.compare(t, "written", "/f", chunks, liveView)
			tw.compareBatch(t, "written", "/f", chunks, liveView)

			// An append cuts a fresh block at the old end of file, so
			// block boundaries stop being multiples of the block size;
			// its last record has no trailing newline.
			tail := append(linesOfMixedLength(int(bs)+11, uint64(bs)+1), "unterminated tail"...)
			tw.each(t, func(fs *FileSystem) error { return fs.Append("/f", tail) })
			tw.compare(t, "appended", "/f", chunks, liveView)
			tw.compareBatch(t, "appended", "/f", chunks, liveView)

			// A snapshot keeps reading the appended file while the path
			// is rewritten behind it.
			snaps := map[*FileSystem]*Snapshot{tw.ref: tw.ref.Pin(tw.ref.metrics), tw.got: tw.got.Pin(tw.got.metrics)}
			defer snaps[tw.ref].Release()
			defer snaps[tw.got].Release()
			tw.each(t, func(fs *FileSystem) error { return fs.WriteFile("/f", []byte("7\n8\n9")) })
			tw.compare(t, "snapshot", "/f", chunks, func(fs *FileSystem) View { return snaps[fs] })
			tw.compareBatch(t, "snapshot", "/f", chunks, func(fs *FileSystem) View { return snaps[fs] })
			tw.compare(t, "rewritten", "/f", chunks, liveView)
			tw.compareBatch(t, "rewritten", "/f", chunks, liveView)

			// The empty file: every position is io.EOF, handed to the
			// callback like any other outcome, and charges nothing.
			tw.each(t, func(fs *FileSystem) error { return fs.WriteFile("/f", nil) })
			tw.compare(t, "empty", "/f", chunks, liveView)
			tw.compareBatch(t, "empty", "/f", chunks, liveView)
		})
	}
}

// TestReadLineAtMatchesCopyingLoopUnderFaults repeats the comparison
// with a dead node, a slow node and injected read errors: the in-place
// path must take its replica through the same attempts as readAt — same
// tick, same backoff outcome, same error text when a block exhausts its
// budget — and still charge the same seek and window bytes. In a batch
// a position that finds no replica is the callback's to judge, and the
// positions after it are read as if it had not failed.
func TestReadLineAtMatchesCopyingLoopUnderFaults(t *testing.T) {
	tw := newReadLineTwin(Config{BlockSize: 64, Replication: 2, DataNodes: 4, Seed: 11})
	// Every failed attempt sleeps its backoff, so this file is small:
	// short records, one of 90 bytes that outgrows the 7-byte window
	// several times over, and a last one without a newline.
	body := []byte("12\n\n345.5\n" + strings.Repeat("x", 90) + "\n6\n77.25\n-8e3\n" + strings.Repeat("9.5\n", 20) + "tail")
	tw.each(t, func(fs *FileSystem) error { return fs.WriteFile("/f", body) })
	tw.each(t, func(fs *FileSystem) error { return fs.KillDataNode(1) })
	plan := &FaultPlan{Seed: 3, ReadErrorRate: 0.45, SlowNodes: []int{2}, SlowDelay: 5 * time.Microsecond}
	tw.ref.SetFaultPlan(plan)
	tw.got.SetFaultPlan(plan)
	tw.compare(t, "faults", "/f", []int{7}, liveView)
	tw.compareBatch(t, "faults", "/f", []int{7}, liveView)

	failed := 0
	for pos := int64(0); pos < int64(len(body)); pos += 16 {
		if _, _, err := tw.got.ReadLineAt("/f", pos, 7); err != nil {
			failed++
		}
	}
	if failed == 0 || failed == (len(body)+15)/16 {
		t.Fatalf("fault plan made %d of %d probes fail; the test wants both outcomes", failed, (len(body)+15)/16)
	}
}

// TestReadLineAtAllocatesOnlyTheRecord pins what the in-place path is
// for: a positioned line read whose window sits in one block allocates
// the string it returns and nothing else — no window buffer, no replica
// list — and a plain positioned block read allocates nothing, on the
// live filesystem and through a held snapshot alike.
func TestReadLineAtAllocatesOnlyTheRecord(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 2, DataNodes: 4, Seed: 5, Metrics: &simcost.Metrics{}})
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("+1.234567890e+01\n"), 4096)); err != nil {
		t.Fatal(err)
	}
	pos := int64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		pos = (pos + 7919) % (17 * 4096)
		if _, _, err := fs.ReadLineAt("/f", pos, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("ReadLineAt made %.1f allocs/op, want ≤ 1 (the returned record)", allocs)
	}
	snap := fs.Pin(fs.metrics)
	defer snap.Release()
	buf := make([]byte, 512)
	for _, v := range []struct {
		name string
		view View
	}{{"live", fs}, {"snapshot", snap}} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := v.view.ReadAt("/f", 1000, buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s ReadAt made %.1f allocs/op, want 0", v.name, allocs)
		}
	}
}

// TestReadLinesAtStopsAndFails pins the two ways a walk ends early: the
// callback's error is returned as it is, a missing path is reported
// before any callback, and either way nothing further is charged.
func TestReadLinesAtStopsAndFails(t *testing.T) {
	m := &simcost.Metrics{}
	fs := New(Config{BlockSize: 64, Replication: 2, DataNodes: 4, Seed: 5, Metrics: m})
	if err := fs.WriteFile("/f", []byte("1\n22\n333\n4444\n")); err != nil {
		t.Fatal(err)
	}
	before, tick := m.Snapshot(), fs.readTick.Load()
	called := false
	err := fs.ReadLinesAt("/missing", []int64{0, 1}, 0, func(int, []byte, int64, error) (bool, error) {
		called = true
		return true, nil
	})
	if !errors.Is(err, ErrNotFound) || called {
		t.Fatalf("missing path: err %v, callback ran: %v", err, called)
	}
	if err := fs.ReadLinesAt("/f", nil, 0, nil); err != nil {
		t.Fatalf("no positions: %v", err)
	}
	if g := m.Snapshot(); g != before || fs.readTick.Load() != tick {
		t.Fatalf("a walk that read nothing charged %+v (tick %d → %d)", g, tick, fs.readTick.Load())
	}

	boom := errors.New("boom")
	var seen []string
	err = fs.ReadLinesAt("/f", []int64{9, 0, 3, 6}, 0, func(i int, line []byte, start int64, err error) (bool, error) {
		seen = append(seen, fmt.Sprintf("%d:%s@%d:%v", i, line, start, err))
		if i == 1 {
			return true, boom
		}
		return true, nil
	})
	if err != boom {
		t.Fatalf("callback error came back as %v", err)
	}
	if want := []string{"0:4444@9:<nil>", "1:1@0:<nil>"}; !slices.Equal(seen, want) {
		t.Fatalf("walk saw %v, want %v", seen, want)
	}
	after := m.Snapshot()
	if after.DiskSeeks-before.DiskSeeks != 2 {
		t.Fatalf("two positions read, %d seeks charged", after.DiskSeeks-before.DiskSeeks)
	}
}

// TestReadLinesAtViewsStoredBytes pins what the batch is for: a window
// inside one block hands the callback the stored bytes themselves — no
// copy, no allocation per position.
func TestReadLinesAtViewsStoredBytes(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 2, DataNodes: 4, Seed: 5, Metrics: &simcost.Metrics{}})
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("+1.234567890e+01\n"), 4096)); err != nil {
		t.Fatal(err)
	}
	positions := make([]int64, 256)
	for i := range positions {
		positions[i] = int64(i*7919) % (17 * 4096)
	}
	total := 0
	visit := func(_ int, line []byte, _ int64, err error) (bool, error) {
		total += len(line)
		return true, err
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := fs.ReadLinesAt("/f", positions, 0, visit); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReadLinesAt made %.1f allocs per 256 positions, want 0", allocs)
	}
	if total == 0 {
		t.Fatal("no record bytes seen")
	}
}

// TestReadLinesAtChargesOnce pins the gather's ledger: nothing is
// charged while the walk runs, and when it ends the ledger holds exactly
// what ReadLineAt charges for the same positions one at a time —
// through windows that grow (records far longer than the 8-byte chunk),
// windows that straddle a block (64-byte blocks), and a gather that an
// injected read error fails part-way. A snapshot pinned to a nil ledger
// charges nothing and reads the same records.
func TestReadLinesAtChargesOnce(t *testing.T) {
	body := linesOfMixedLength(3000, 17)
	positions := make([]int64, 0, len(body)/5)
	for pos := int64(3); pos < int64(len(body)); pos += 5 {
		positions = append(positions, pos)
	}
	for _, c := range []struct {
		name string
		plan *FaultPlan
	}{{"clean", nil}, {"read-error", &FaultPlan{Seed: 1, ReadErrorRate: 0.5}}} {
		t.Run(c.name, func(t *testing.T) {
			tw := newReadLineTwin(Config{BlockSize: 64, Replication: 2, DataNodes: 4, Seed: 9})
			tw.each(t, func(fs *FileSystem) error { return fs.WriteFile("/f", body) })
			tw.ref.SetFaultPlan(c.plan)
			tw.got.SetFaultPlan(c.plan)
			refL, gotL := &simcost.Metrics{}, &simcost.Metrics{}
			ref, got := tw.ref.Pin(refL), tw.got.Pin(gotL)
			defer ref.Release()
			defer got.Release()

			var want []string
			var wantErr error
			grew, straddled := false, false
			for _, pos := range positions {
				seeks := refL.DiskSeeks.Load()
				line, start, err := ref.ReadLineAt("/f", pos, 8)
				if err != nil {
					wantErr = err
					break
				}
				want = append(want, line)
				grew = grew || refL.DiskSeeks.Load()-seeks > 1
				straddled = straddled || start/64 != (start+int64(len(line)))/64
			}
			if c.plan == nil && (!grew || !straddled) {
				t.Fatalf("the reference reads never grew a window (%v) or crossed a block (%v)", grew, straddled)
			}
			if c.plan != nil && (wantErr == nil || len(want) == 0) {
				t.Fatalf("the read error failed %d of %d reads in (%v): want part-way", len(want), len(positions), wantErr)
			}

			var lines []string
			err := got.ReadLinesAt("/f", positions, 8, func(i int, line []byte, _ int64, err error) (bool, error) {
				if g := gotL.Snapshot(); g != (simcost.Snapshot{}) {
					t.Fatalf("position %d: the ledger was charged mid-walk: %+v", i, g)
				}
				if err == nil {
					lines = append(lines, string(line))
				}
				return true, err
			})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(lines, want) {
				t.Fatalf("gather: %d lines, err %v; one at a time: %d lines, err %v", len(lines), err, len(want), wantErr)
			}
			if g, w := gotL.Snapshot(), refL.Snapshot(); g != w {
				t.Fatalf("gather charged %+v, one at a time %+v", g, w)
			}

			// A nil ledger: the same walk, nothing charged anywhere.
			tw.got.SetFaultPlan(nil)
			before := tw.gotM.Snapshot()
			nilView := tw.got.Pin(nil)
			defer nilView.Release()
			n := 0
			if err := nilView.ReadLinesAt("/f", positions, 8, func(int, []byte, int64, error) (bool, error) {
				n++
				return true, nil
			}); err != nil || n != len(positions) {
				t.Fatalf("nil ledger: %d of %d positions, err %v", n, len(positions), err)
			}
			if g := tw.gotM.Snapshot(); g != before {
				t.Fatalf("a walk on a nil ledger charged the filesystem: %+v → %+v", before, g)
			}
		})
	}
}
