package sampling

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/colscan"
)

// eagerPool is the pool as it was first built: a flat array of every
// pooled record's (block, record) reference, shuffled in place by an
// incremental Fisher–Yates. The virtual pool must draw what it draws,
// call for call.
type eagerPool struct {
	blocks []*colscan.Block
	refs   []eagerRef
	drawn  int
	rng    *rand.Rand
}

type eagerRef struct{ blk, rec int32 }

func newEagerPool(seed uint64) *eagerPool {
	return &eagerPool{rng: NewPostMapCols(seed).rng}
}

// add pools kept of b, or every record of b when kept is nil.
func (e *eagerPool) add(b *colscan.Block, kept []int32) {
	bi := int32(len(e.blocks))
	e.blocks = append(e.blocks, b)
	if kept == nil {
		for r := range b.NumRecords() {
			e.refs = append(e.refs, eagerRef{bi, int32(r)})
		}
		return
	}
	for _, r := range kept {
		e.refs = append(e.refs, eagerRef{bi, r})
	}
}

func (e *eagerPool) draw(n int, out *colscan.Cols) (int, error) {
	got := 0
	for got < n {
		if e.drawn >= len(e.refs) {
			return got, ErrExhausted
		}
		j := e.drawn + e.rng.IntN(len(e.refs)-e.drawn)
		e.refs[e.drawn], e.refs[j] = e.refs[j], e.refs[e.drawn]
		ref := e.refs[e.drawn]
		e.blocks[ref.blk].AppendCols(out, int(ref.rec))
		e.drawn++
		got++
	}
	return got, nil
}

// pair fills a virtual and an eager pool alike.
type pair struct {
	lazy  *PostMapCols
	eager *eagerPool
}

func newPair(seed uint64) pair { return pair{NewPostMapCols(seed), newEagerPool(seed)} }

func (p pair) add(b *colscan.Block, kept []int32) {
	if kept == nil {
		p.lazy.AddBlock(b)
	} else {
		p.lazy.AddBlockKept(b, kept)
	}
	p.eager.add(b, kept)
}

// drawBoth draws n from each pool and fails unless the counts, the
// exhaustion and the records agree.
func (p pair) drawBoth(t testing.TB, n int) colscan.Cols {
	t.Helper()
	var got, want colscan.Cols
	gn, gerr := p.lazy.DrawCols(n, &got)
	wn, werr := p.eager.draw(n, &want)
	if gn != wn || errors.Is(gerr, ErrExhausted) != errors.Is(werr, ErrExhausted) || (gerr != nil && !errors.Is(gerr, ErrExhausted)) {
		t.Fatalf("draw of %d: virtual pool gave %d, %v; eager pool %d, %v", n, gn, gerr, wn, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("draw of %d: virtual pool drew %v, eager pool %v", n, got.Vals, want.Vals)
	}
	return got
}

// TestPostMapLazyMatchesEager: a pool of whole blocks and selections
// (one of them empty, one nil) draws exactly the records an eager
// refs-array shuffle draws, chunk by chunk, through exhaustion and the
// short count that reports it; and the stream does not depend on how
// it is chunked. The pool outgrows the first displaced-position table.
func TestPostMapLazyMatchesEager(t *testing.T) {
	const perBlock = 1500
	fill := func(seed uint64) pair {
		p := newPair(seed)
		for i := range 8 {
			b := indexBlock(t, i*perBlock, (i+1)*perBlock)
			switch i % 4 {
			case 0:
				p.add(b, nil)
			case 1:
				var kept []int32
				for r := 0; r < perBlock; r += 1 + r%3 {
					kept = append(kept, int32(r))
				}
				p.add(b, kept)
			case 2:
				p.add(b, []int32{})
			case 3:
				p.lazy.AddBlockKept(b, nil) // nil selects nothing, too
				p.eager.add(b, []int32{})
			}
		}
		return p
	}
	for _, seed := range []uint64{1, 5, 99} {
		p := fill(seed)
		total := int(p.lazy.Weight())
		if total != len(p.eager.refs) {
			t.Fatalf("virtual pool holds %d records, eager pool %d", total, len(p.eager.refs))
		}
		var chunked colscan.Cols
		for _, n := range []int{1, 7, total} { // the last asks for 8 more than remain
			c := p.drawBoth(t, n)
			chunked.Vals = append(chunked.Vals, c.Vals...)
		}
		if c := p.drawBoth(t, 3); c.Len() != 0 {
			t.Fatalf("seed %d: drew %d records from an exhausted pool", seed, c.Len())
		}
		whole := fill(seed).drawBoth(t, total)
		if !reflect.DeepEqual(chunked.Vals, whole.Vals) {
			t.Fatalf("seed %d: a stream drawn 1+7+rest differs from one drawn whole", seed)
		}
	}
}

// FuzzPostMapDraw: over fuzzed block sizes, selections, seeds and draw
// chunkings, the virtual pool draws exactly what the eager shuffle
// draws. layout is read in byte pairs (block size, selection: high bit
// clear pools the whole block, set keeps the records whose r%7'th bit
// of the low seven is set); each chunk byte is one draw, and a final
// draw runs past the pool.
func FuzzPostMapDraw(f *testing.F) {
	f.Add(uint64(1), []byte{40, 0, 33, 0x85, 0, 0x80, 60, 0xff}, []byte{1, 7, 200})
	f.Add(uint64(7), []byte{255, 0x81, 1, 0, 0, 0}, []byte{0, 3, 3, 3, 255})
	f.Fuzz(func(t *testing.T, seed uint64, layout, chunks []byte) {
		p := newPair(seed)
		next := 0
		for i := 0; i+1 < len(layout) && i < 128; i += 2 {
			size, sel := int(layout[i]), layout[i+1]
			b := indexBlock(t, next, next+size)
			next += size
			if sel&0x80 == 0 {
				p.add(b, nil)
				continue
			}
			kept := []int32{}
			for r := range size {
				if sel>>(r%7)&1 == 1 {
					kept = append(kept, int32(r))
				}
			}
			p.add(b, kept)
		}
		for _, n := range chunks {
			p.drawBoth(t, int(n))
		}
		p.drawBoth(t, int(p.lazy.Weight())+1)
	})
}

// BenchmarkPostMapFillAndDraw prices one post-map run's use of a pool,
// shaped like the query_scan workload's: 36 cached keyed blocks with
// about 21 k records each passing σ (their selections memoized once,
// as a scan cache holds them), pooled, then about 1 900 records drawn
// over 16 calls.
func BenchmarkPostMapFillAndDraw(b *testing.B) {
	const blocks, perBlock, calls, perCall = 36, 30000, 16, 119
	dict := make([]string, 16)
	for i := range dict {
		dict[i] = "g" + string(rune('a'+i))
	}
	src := rand.New(rand.NewPCG(1, 2))
	blks := make([]*colscan.Block, blocks)
	kept := make([][]int32, blocks)
	for i := range blks {
		starts := make([]int64, perBlock)
		vals := make([]float64, perBlock)
		keys := make([]uint32, perBlock)
		for r := range vals {
			starts[r] = int64(r * 12)
			vals[r] = src.Float64() * 100
			keys[r] = uint32(r % len(dict))
			if vals[r] > 30 {
				kept[i] = append(kept[i], int32(r))
			}
		}
		blk, err := colscan.NewBlock(colscan.FormatKV, starts, int64(perBlock*12), vals, keys, dict)
		if err != nil {
			b.Fatal(err)
		}
		blks[i] = blk
	}
	var out colscan.Cols
	b.ReportAllocs()
	seed := uint64(0)
	for b.Loop() {
		seed++
		s := NewPostMapCols(seed)
		for i, blk := range blks {
			s.AddBlockKept(blk, kept[i])
		}
		out.Reset()
		for range calls {
			if _, err := s.DrawCols(perCall, &out); err != nil {
				b.Fatal(err)
			}
		}
		s.Release()
	}
}
