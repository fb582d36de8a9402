package journal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"
)

// writeN builds a journal with n records cycling the three ops.
func writeN(n int) *Log {
	l := New()
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/data/f%d", i%4)
		switch i % 3 {
		case 0:
			l.Append(OpWrite, path, []byte(fmt.Sprintf("w%d\n", i)))
		case 1:
			l.Append(OpAppend, path, []byte(fmt.Sprintf("a%d\n", i)))
		default:
			l.Append(OpDelete, path, nil)
		}
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	l := New()
	l.Append(OpWrite, "/data/a", []byte("one\ntwo\n"))
	l.Append(OpAppend, "/data/a", []byte("three\n"))
	l.Append(OpDelete, "/data/a", nil)
	l.Append(OpWrite, "/data/empty", nil)

	recs, st, err := Replay(l.Bytes())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if st.TornTail || st.Records != 4 || st.Bytes != l.Size() {
		t.Fatalf("stats = %+v, want 4 clean records over %d bytes", st, l.Size())
	}
	want := []Record{
		{Seq: 1, Op: OpWrite, Path: "/data/a", Data: []byte("one\ntwo\n")},
		{Seq: 2, Op: OpAppend, Path: "/data/a", Data: []byte("three\n")},
		{Seq: 3, Op: OpDelete, Path: "/data/a"},
		{Seq: 4, Op: OpWrite, Path: "/data/empty"},
	}
	for i, w := range want {
		g := recs[i]
		if g.Seq != w.Seq || g.Op != w.Op || g.Path != w.Path || !bytes.Equal(g.Data, w.Data) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

func TestEmptyJournal(t *testing.T) {
	recs, st, err := Replay(New().Bytes())
	if err != nil || len(recs) != 0 || st.TornTail {
		t.Fatalf("empty journal: recs=%v st=%+v err=%v", recs, st, err)
	}
	if _, _, err := Replay(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil journal should be ErrCorrupt, got %v", err)
	}
	if _, _, err := Replay([]byte("NOTMAGIC")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic should be ErrCorrupt, got %v", err)
	}
}

// Truncating anywhere strictly inside the final record must replay the
// full committed prefix and flag a torn tail; truncating at a frame
// boundary is a clean (shorter) journal.
func TestTornTailEveryTruncation(t *testing.T) {
	l := writeN(5)
	img := l.Bytes()
	// Locate every frame boundary by replaying prefixes.
	boundaries := []int64{headerSize}
	for k := int64(1); k <= 5; k++ {
		boundaries = append(boundaries, int64(len(PrefixRecords(img, k))))
	}
	for cut := int64(headerSize); cut <= int64(len(img)); cut++ {
		recs, st, err := Replay(img[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// How many full records fit below the cut?
		wantK := int64(0)
		for i, b := range boundaries {
			if cut >= b {
				wantK = int64(i)
			}
		}
		atBoundary := cut == boundaries[wantK]
		if int64(len(recs)) != wantK {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), wantK)
		}
		if st.TornTail == atBoundary {
			t.Fatalf("cut %d: TornTail=%v, at boundary=%v", cut, st.TornTail, atBoundary)
		}
		if st.Bytes != boundaries[wantK] {
			t.Fatalf("cut %d: clean bytes %d, want %d", cut, st.Bytes, boundaries[wantK])
		}
	}
}

// A flipped byte in the final record (frame intact, CRC wrong) is a torn
// tail; the same flip in an interior record is corruption.
func TestCorruptionVsTornTail(t *testing.T) {
	l := writeN(4)
	img := l.Bytes()
	lastStart := int64(len(PrefixRecords(img, 3)))

	tail := append([]byte(nil), img...)
	tail[lastStart+frameFixed] ^= 0xFF // a path byte of the final record
	recs, st, err := Replay(tail)
	if err != nil || !st.TornTail || len(recs) != 3 {
		t.Fatalf("flipped tail byte: recs=%d st=%+v err=%v, want torn tail with 3 records", len(recs), st, err)
	}

	mid := append([]byte(nil), img...)
	firstStart := int64(len(PrefixRecords(img, 0)))
	mid[firstStart+frameFixed] ^= 0xFF
	if _, _, err := Replay(mid); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior flip should be ErrCorrupt, got %v", err)
	}
}

func TestTear(t *testing.T) {
	l := writeN(3)
	full := l.Size()
	if l.Tear(0) || l.Tear(full) {
		t.Fatal("degenerate tears must be refused")
	}
	if !l.Tear(5) {
		t.Fatal("Tear(5) refused")
	}
	if l.Records() != 2 {
		t.Fatalf("Records after tear = %d, want 2", l.Records())
	}
	recs, st, err := Replay(l.Bytes())
	if err != nil || !st.TornTail || len(recs) != 2 {
		t.Fatalf("after tear: recs=%d st=%+v err=%v", len(recs), st, err)
	}
	if New().Tear(1) {
		t.Fatal("tearing an empty journal must be refused")
	}
}

func TestPrefixRecords(t *testing.T) {
	l := writeN(6)
	img := l.Bytes()
	for k := int64(0); k <= 7; k++ {
		p := PrefixRecords(img, k)
		want := k
		if want > 6 {
			want = 6
		}
		if got := CountRecords(p); got != want {
			t.Fatalf("PrefixRecords(%d): %d records, want %d", k, got, want)
		}
	}
}

// FuzzJournalReplay: a random committed sequence cut at a random point
// must replay exactly the records whose frames fit below the cut, with
// the tail flagged torn unless the cut lands on a frame boundary. This
// is the crash-safety property Recover leans on.
func FuzzJournalReplay(f *testing.F) {
	f.Add(uint64(1), uint(3), uint(10))
	f.Add(uint64(42), uint(0), uint(0))
	f.Add(uint64(7), uint(12), uint(5000))
	f.Fuzz(func(t *testing.T, seed uint64, n uint, cutAt uint) {
		n %= 24
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
		l := New()
		var boundaries []int64
		boundaries = append(boundaries, int64(headerSize))
		for i := uint(0); i < n; i++ {
			op := Op(rng.IntN(3) + 1)
			path := fmt.Sprintf("/f/%d", rng.IntN(5))
			var data []byte
			if op != OpDelete {
				data = make([]byte, rng.IntN(64))
				for j := range data {
					data[j] = byte(rng.IntN(256))
				}
			}
			l.Append(op, path, data)
			boundaries = append(boundaries, l.Size())
		}
		img := l.Bytes()
		cut := int64(headerSize) + int64(cutAt)%(l.Size()-int64(headerSize)+1)
		recs, st, err := Replay(img[:cut])
		if err != nil {
			t.Fatalf("seed=%d n=%d cut=%d: %v", seed, n, cut, err)
		}
		wantK := 0
		for i, b := range boundaries {
			if cut >= b {
				wantK = i
			}
		}
		if len(recs) != wantK {
			t.Fatalf("cut=%d: %d records, want %d", cut, len(recs), wantK)
		}
		if st.TornTail != (cut != boundaries[wantK]) {
			t.Fatalf("cut=%d: TornTail=%v, boundary=%d", cut, st.TornTail, boundaries[wantK])
		}
		// Replayed prefix must byte-match the records as written.
		orig, _, _ := Replay(img)
		for i, r := range recs {
			o := orig[i]
			if r.Seq != o.Seq || r.Op != o.Op || r.Path != o.Path || !bytes.Equal(r.Data, o.Data) {
				t.Fatalf("record %d mismatch after cut", i)
			}
		}
	})
}

// tearEveryDrop tears a fresh n-record log at every drop from -1 to one
// past the final frame's length and hashes what each attempt left:
// whether it tore, the record count, the size and the image.
func tearEveryDrop(t *testing.T, n int) uint64 {
	t.Helper()
	full := writeN(n).Bytes()
	lastFrame := int64(len(full)) - int64(len(PrefixRecords(full, int64(n-1))))
	h := fnv.New64a()
	for drop := int64(-1); drop <= lastFrame+1; drop++ {
		l := writeN(n)
		tore := l.Tear(drop)
		img := l.Bytes()
		if want := drop > 0 && drop < lastFrame; tore != want {
			t.Fatalf("n=%d Tear(%d) = %v, want %v", n, drop, tore, want)
		}
		wantImg, wantN := full, int64(n)
		if tore {
			wantImg, wantN = full[:int64(len(full))-drop], int64(n-1)
		}
		if !bytes.Equal(img, wantImg) || l.Records() != wantN || l.Size() != int64(len(wantImg)) {
			t.Fatalf("n=%d Tear(%d): %d records over %d bytes, want %d over %d", n, drop, l.Records(), l.Size(), wantN, len(wantImg))
		}
		fmt.Fprintf(h, "%d %v %d %d %x;", drop, tore, l.Records(), l.Size(), img)
	}
	return h.Sum64()
}

// TestTearEveryDrop holds Tear at every drop of a one- and a three-record
// log to the images the contiguous-buffer journal produced (the hashes
// were recorded at the parent of PR 20, before the log became a list of
// frames).
func TestTearEveryDrop(t *testing.T) {
	for _, c := range []struct {
		n    int
		want uint64
	}{{1, 0x180b3224a1f23202}, {3, 0x52433289748395ff}} {
		if got := tearEveryDrop(t, c.n); got != c.want {
			t.Errorf("n=%d: hash %#016x, want %#016x", c.n, got, c.want)
		}
	}
}
