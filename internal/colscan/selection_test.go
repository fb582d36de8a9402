package colscan

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// keepAbove is a filter's selection built by hand: the records of b
// whose value exceeds x, in a fresh array.
func keepAbove(b *Block, x float64) []int32 {
	var kept []int32
	for i, v := range b.Values() {
		if v > x {
			kept = append(kept, int32(i))
		}
	}
	return kept
}

// TestConcurrentSelectionsShareOne: goroutines that Load, filter and
// Release the same blocks at once all read one selection per block —
// built by whichever fill got there first, equal to the selection over
// an uncached decode of the split.
func TestConcurrentSelectionsShareOne(t *testing.T) {
	const G, rounds, splits = 4, 50, 6
	var b strings.Builder
	for i := range 6000 {
		fmt.Fprintf(&b, "k%d\t%d.%02d\n", i%5, (i*37)%100, i%100)
	}
	data := &memFile{data: []byte(b.String())}
	size := int64(len(data.data))
	keys := make([]BlockKey, splits)
	want := make([][]int32, splits)
	for i := range keys {
		off := size * int64(i) / splits
		keys[i] = BlockKey{Path: "/f", Version: 1, Offset: off, Length: size*int64(i+1)/splits - off, Format: FormatKV}
		blk, err := Decode(data, "/f", size, keys[i].Offset, keys[i].Length, FormatKV)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = blk.Selection("v > 30", func() []int32 { return keepAbove(blk, 30) })
	}
	c := NewCache(0)
	var wg sync.WaitGroup
	for range G {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for i, key := range keys {
					blk, err := c.Load(data, size, key)
					if err != nil {
						t.Error(err)
						return
					}
					same := slices.Equal(blk.Selection("v > 30", func() []int32 { return keepAbove(blk, 30) }), want[i])
					blk.Release()
					if !same {
						t.Errorf("split %d: a concurrent fill read a selection unlike the uncached one", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Selections != splits || st.SelectionHits != G*rounds*splits-splits {
		t.Fatalf("%d selections built, %d hits, for %d blocks filtered %d times", st.Selections, st.SelectionHits, splits, G*rounds*splits)
	}
}
