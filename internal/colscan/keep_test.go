package colscan_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/colscan"
	"repro/internal/plan"
)

// file is a ReaderAt over bytes in memory.
type file []byte

func (f file) ReadAt(path string, off int64, p []byte) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(f)) {
		return 0, fmt.Errorf("read of %d bytes at %d outside %d", len(p), off, len(f))
	}
	return copy(p, f[off:]), nil
}

// TestConcurrentKeepBlockSharesOneSelection: goroutines filtering the
// same cached blocks through plan.KeepBlock at once, under a numeric
// and a string σ, each read one selection per block and filter — built
// by whichever fill got there first — equal to KeepBlock over an
// uncached decode. Each σ reads a file of its own — values for the
// numeric one, keyed records for the string one — so no block's one
// memo slot is contended by two filters.
func TestConcurrentKeepBlockSharesOneSelection(t *testing.T) {
	const G, rounds, splits = 4, 30, 6
	type filtered struct {
		prog *plan.Program
		data file
		keys []colscan.BlockKey
		want [][]int32
	}
	var fs []filtered
	for _, c := range []struct{ path, filter, line string }{
		{"/n", "v > 30", "%[2]d.%02[3]d\n"},
		{"/kv", `key == "k3" || key == "k1"`, "k%d\t%d.%02d\n"},
	} {
		prog, err := plan.Spec{Path: c.path, Filter: c.filter}.Compile()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := range 6000 {
			fmt.Fprintf(&b, c.line, i%5, (i*37)%100, i%100)
		}
		f := filtered{prog: prog, data: file(b.String())}
		size := int64(len(f.data))
		for i := range splits {
			off := size * int64(i) / splits
			key := colscan.BlockKey{Path: c.path, Version: 1, Offset: off, Length: size*int64(i+1)/splits - off, Format: prog.InputFormat()}
			blk, err := colscan.Decode(f.data, c.path, size, key.Offset, key.Length, key.Format)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Clone(prog.KeepBlock(plan.NewScratch(), blk, nil))
			if len(want) == 0 || len(want) == blk.NumRecords() {
				t.Fatalf("%s keeps %d of %d records: not a test of σ", c.filter, len(want), blk.NumRecords())
			}
			f.keys, f.want = append(f.keys, key), append(f.want, want)
		}
		fs = append(fs, f)
	}
	c := colscan.NewCache(0)
	var wg sync.WaitGroup
	for range G {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := plan.NewScratch()
			for range rounds {
				for _, f := range fs {
					for i, key := range f.keys {
						blk, err := c.Load(f.data, int64(len(f.data)), key)
						if err != nil {
							t.Error(err)
							return
						}
						same := slices.Equal(f.prog.KeepBlock(sc, blk, nil), f.want[i])
						blk.Release()
						if !same {
							t.Errorf("split %d: a concurrent fill kept records unlike an uncached KeepBlock", i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	fills := int64(G * rounds * splits * len(fs))
	if st := c.Stats(); st.Selections != int64(splits*len(fs)) || st.SelectionHits != fills-st.Selections {
		t.Fatalf("%d selections built, %d hits, for %d blocks under %d filters filled %d times",
			st.Selections, st.SelectionHits, splits, len(fs), fills)
	}
}
