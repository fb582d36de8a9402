package dfs

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

// readAllSplits reads every record of every split and returns them in
// order, verifying the single-owner property along the way.
func readAllSplits(t *testing.T, fs *FileSystem, path string, splitSize int64, chunk int) []string {
	t.Helper()
	splits, err := fs.Splits(path, splitSize)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sp := range splits {
		r, err := fs.NewLineReader(sp, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for r.Next() {
			out = append(out, r.Text())
		}
		if r.Err() != nil {
			t.Fatalf("split %v: %v", sp, r.Err())
		}
	}
	return out
}

func linesFixture(n int) ([]string, []byte) {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%7))
	}
	return lines, []byte(strings.Join(lines, "\n") + "\n")
}

func TestLineReaderSingleSplit(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	lines, data := linesFixture(100)
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	got := readAllSplits(t, fs, "/t", 1<<20, 16)
	if len(got) != len(lines) {
		t.Fatalf("got %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], lines[i])
		}
	}
}

func TestLineReaderEveryRecordExactlyOnce(t *testing.T) {
	// The core single-owner property across many split sizes, including
	// sizes that land boundaries mid-line, exactly on '\n', and exactly
	// on line starts.
	fs := newTestFS(t, 1<<20)
	lines, data := linesFixture(57)
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	for splitSize := int64(1); splitSize < int64(len(data))+5; splitSize += 3 {
		got := readAllSplits(t, fs, "/t", splitSize, 8)
		if len(got) != len(lines) {
			t.Fatalf("splitSize %d: got %d lines, want %d", splitSize, len(got), len(lines))
		}
		for i := range lines {
			if got[i] != lines[i] {
				t.Fatalf("splitSize %d line %d = %q want %q", splitSize, i, got[i], lines[i])
			}
		}
	}
}

func TestLineReaderNoTrailingNewline(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	data := []byte("alpha\nbeta\ngamma") // no trailing newline
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	for splitSize := int64(1); splitSize <= int64(len(data)); splitSize++ {
		got := readAllSplits(t, fs, "/t", splitSize, 4)
		want := []string{"alpha", "beta", "gamma"}
		if len(got) != 3 {
			t.Fatalf("splitSize %d: got %v", splitSize, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("splitSize %d: got %v", splitSize, got)
			}
		}
	}
}

func TestLineReaderEmptyLines(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	data := []byte("\n\na\n\nb\n")
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	got := readAllSplits(t, fs, "/t", 3, 2)
	want := []string{"", "", "a", "", "b"}
	if len(got) != len(want) {
		t.Fatalf("got %q want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %q want %q", got, want)
		}
	}
}

func TestLineReaderPropertyRandomDocuments(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		nLines := 1 + int(rng.UintN(80))
		lines := make([]string, nLines)
		for i := range lines {
			lines[i] = strings.Repeat("ab", int(rng.UintN(20)))
		}
		// A trailing "\n" is the record terminator, not a separator: "a\n"
		// encodes ["a"], and omitting the final newline is only a distinct
		// encoding when the last record is non-empty.
		doc := strings.Join(lines, "\n") + "\n"
		if rng.UintN(2) == 0 && lines[len(lines)-1] != "" {
			doc = strings.TrimSuffix(doc, "\n")
		}
		fs := New(Config{BlockSize: 1 + int64(rng.UintN(64)), Replication: 1, DataNodes: 2, Seed: seed})
		if err := fs.WriteFile("/p", []byte(doc)); err != nil {
			return false
		}
		splitSize := 1 + int64(rng.Uint64N(uint64(len(doc)+4)))
		splits, err := fs.Splits("/p", splitSize)
		if err != nil {
			return false
		}
		var got []string
		for _, sp := range splits {
			r, err := fs.NewLineReader(sp, 1+int(rng.UintN(32)))
			if err != nil {
				return false
			}
			for r.Next() {
				got = append(got, r.Text())
			}
			if r.Err() != nil {
				return false
			}
		}
		if len(got) != len(lines) {
			return false
		}
		for i := range lines {
			if got[i] != lines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLineReaderRecordOffset(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	data := []byte("aa\nbbb\ncccc\n")
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/t", int64(len(data)))
	r, err := fs.NewLineReader(splits[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	wantOffsets := []int64{0, 3, 7}
	for i := 0; r.Next(); i++ {
		if r.RecordOffset() != wantOffsets[i] {
			t.Fatalf("record %d offset = %d, want %d", i, r.RecordOffset(), wantOffsets[i])
		}
	}
}

func TestLineReaderBadSplit(t *testing.T) {
	fs := newTestFS(t, 1<<20)
	fs.WriteFile("/t", []byte("x\n"))
	if _, err := fs.NewLineReader(Split{Path: "/t", Offset: 100, Length: 5}, 4); err == nil {
		t.Fatal("out-of-bounds split should error")
	}
	if _, err := fs.NewLineReader(Split{Path: "/missing"}, 4); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestReadLineAtBacktracking(t *testing.T) {
	fs := newTestFS(t, 16)
	data := []byte("first line\nsecond line\nthird\n")
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	// Offset in the middle of "second line" backtracks to its start.
	line, start, err := fs.ReadLineAt("/t", 15, 4)
	if err != nil || line != "second line" || start != 11 {
		t.Fatalf("ReadLineAt = %q @%d, %v", line, start, err)
	}
	// Offset exactly at a line start returns that line.
	line, start, err = fs.ReadLineAt("/t", 11, 4)
	if err != nil || line != "second line" || start != 11 {
		t.Fatalf("ReadLineAt@start = %q @%d, %v", line, start, err)
	}
	// Offset 0 returns the first line.
	line, start, err = fs.ReadLineAt("/t", 0, 4)
	if err != nil || line != "first line" || start != 0 {
		t.Fatalf("ReadLineAt@0 = %q @%d, %v", line, start, err)
	}
	// Offset at/after EOF clamps to the last line.
	line, start, err = fs.ReadLineAt("/t", 1000, 4)
	if err != nil || line != "third" || start != 23 {
		t.Fatalf("ReadLineAt@EOF = %q @%d, %v", line, start, err)
	}
}

func TestReadLineAtEveryPositionOwnsOneLine(t *testing.T) {
	fs := newTestFS(t, 8)
	lines := []string{"aaa", "bb", "cccc", "d"}
	data := []byte(strings.Join(lines, "\n") + "\n")
	if err := fs.WriteFile("/t", data); err != nil {
		t.Fatal(err)
	}
	// Every byte position maps to the line containing it.
	wantAt := make([]string, len(data))
	pos := 0
	for _, l := range lines {
		for i := 0; i <= len(l); i++ { // include the newline position
			wantAt[pos] = l
			pos++
		}
	}
	for p := 0; p < len(data); p++ {
		line, _, err := fs.ReadLineAt("/t", int64(p), 3)
		if err != nil {
			t.Fatalf("pos %d: %v", p, err)
		}
		if line != wantAt[p] {
			t.Fatalf("pos %d: got %q want %q", p, line, wantAt[p])
		}
	}
}
