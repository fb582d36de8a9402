package dfs

import (
	"strings"
	"testing"
)

// FuzzAppendSplits checks the two split invariants the incremental
// pipeline builds on, under arbitrary append sequences:
//
//  1. stability — the splits covering already-ingested data are
//     byte-for-byte identical after any number of Appends (a split
//     never straddles a segment boundary), so delta processing can
//     identify "new" splits as exactly the suffix;
//  2. single ownership — reading every split with LineReader yields
//     each record of the file exactly once, in file order.
func FuzzAppendSplits(f *testing.F) {
	f.Add(uint8(4), []byte("a\nbb\nccc\n\x03x\ny\n"))
	f.Add(uint8(1), []byte("\x05hello\x06world\n"))
	f.Add(uint8(16), []byte("no newline at all"))
	f.Fuzz(func(t *testing.T, sizeSel uint8, data []byte) {
		fs := New(Config{BlockSize: 1 << 20, Seed: 1})
		splitSize := int64(sizeSel%32) + 1
		const path = "/fuzz/app.log"

		var prev []Split
		var content []byte
		for len(data) > 0 {
			// One chunk per leading length byte; every chunk but the
			// final one is newline-terminated to satisfy the DFS's
			// record-aligned append contract.
			n := int(data[0]%32) + 1
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			chunk := append([]byte(nil), data[:n]...)
			data = data[n:]
			if len(chunk) == 0 {
				continue
			}
			if len(data) > 0 && chunk[len(chunk)-1] != '\n' {
				chunk = append(chunk, '\n')
			}
			if err := fs.Append(path, chunk); err != nil {
				t.Fatalf("Append: %v", err)
			}
			content = append(content, chunk...)

			splits, err := fs.Splits(path, splitSize)
			if err != nil {
				t.Fatalf("Splits: %v", err)
			}
			// Invariant 1: previous splits are a byte-identical prefix.
			if len(splits) < len(prev) {
				t.Fatalf("splits shrank: %d -> %d", len(prev), len(splits))
			}
			for i, s := range prev {
				if splits[i] != s {
					t.Fatalf("split %d changed after append: %v -> %v", i, s, splits[i])
				}
			}
			// Splits must tile the file exactly.
			var covered int64
			for i, s := range splits {
				if s.Index != i || s.Offset != covered || s.Length < 0 {
					t.Fatalf("split %d does not tile: %v (covered %d)", i, s, covered)
				}
				covered += s.Length
			}
			if covered != int64(len(content)) {
				t.Fatalf("splits cover %d bytes, file has %d", covered, len(content))
			}
			prev = splits
		}
		if len(content) == 0 {
			return
		}

		// Invariant 2: each record has exactly one owning split.
		var wantLines []string
		for _, l := range strings.SplitAfter(string(content), "\n") {
			if l != "" {
				wantLines = append(wantLines, strings.TrimSuffix(l, "\n"))
			}
		}
		var gotLines []string
		for _, s := range prev {
			r, err := fs.NewLineReader(s, 7) // tiny chunk: exercise refills
			if err != nil {
				t.Fatalf("NewLineReader(%v): %v", s, err)
			}
			for r.Next() {
				gotLines = append(gotLines, r.Text())
			}
			if err := r.Err(); err != nil {
				t.Fatalf("LineReader(%v): %v", s, err)
			}
		}
		if len(gotLines) != len(wantLines) {
			t.Fatalf("read %d records across splits, file has %d\ngot:  %q\nwant: %q",
				len(gotLines), len(wantLines), gotLines, wantLines)
		}
		for i := range wantLines {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("record %d = %q, want %q", i, gotLines[i], wantLines[i])
			}
		}
		n, err := countLines(fs, path)
		if err != nil || n != int64(len(wantLines)) {
			t.Fatalf("countLines = %d, %v; want %d", n, err, len(wantLines))
		}
	})
}
