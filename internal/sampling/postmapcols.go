package sampling

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/colscan"
)

// PostMapCols implements the paper's Algorithm 1: the map side reads and
// parses *all* input, pools the records, and then repeatedly sends
// uniform without-replacement subsets downstream until the error is low
// enough. Compared to PreMap it pays the full load cost but knows the
// exact record count, so result correction is exact (§3.3, §6.5). The
// pool is virtual, one span per decoded block, so a fill costs one
// append per block. Draws are an incremental Fisher–Yates shuffle ("the
// key, value pairs already sent are removed from the hashmap") that
// stores only the positions a swap displaced: a stream costs O(draws),
// whatever the pool's size, and delivers parsed columns.
type PostMapCols struct {
	blocks []*colscan.Block
	spans  []span // spans[i] pools from blocks[i]
	total  int
	moved  displaced
	drawn  int
	rng    *rand.Rand
}

// span is what a pool takes from one block: its records sel[0..] in
// order, or every record when sel is nil; end is the pool position past
// the last.
type span struct {
	sel []int32
	end int
}

// NewPostMapCols builds an empty pool with its own seeded rng stream.
func NewPostMapCols(seed uint64) *PostMapCols {
	return &PostMapCols{rng: rand.New(rand.NewPCG(seed, 0x3c6ef372fe94f82b))}
}

// AddBlock pools every record of one decoded split. Blocks are added
// in split order before the first draw.
func (s *PostMapCols) AddBlock(b *colscan.Block) {
	s.total += b.NumRecords()
	s.blocks, s.spans = append(s.blocks, b), append(s.spans, span{end: s.total})
}

// AddBlockKept pools only the given records (ascending indices into b)
// of one decoded split — the predicate-pushdown fill: a filtering run
// pools the σ-surviving records of each cached block, so the pool IS
// the filtered subpopulation and a fixed seed draws the same record
// permutation as a pool built from a physically pre-filtered file.
// kept is retained, not copied, and must stay unchanged while b is
// held, as a memo of plan.Program.KeepBlock does: the cache never
// writes a memo it published, not even one it displaced.
func (s *PostMapCols) AddBlockKept(b *colscan.Block, kept []int32) {
	s.total += len(kept)
	s.blocks, s.spans = append(s.blocks, b), append(s.spans, span{sel: kept, end: s.total})
}

// Weight returns the number of records pooled.
func (s *PostMapCols) Weight() int64 { return int64(s.total) }

// batch is how many draws DrawCols resolves per pass: a batch's
// positions are all picked before any is located, and all located
// before any record is gathered, so the random loads of a pass overlap.
const batch = 64

// DrawCols appends n records drawn uniformly without replacement to
// out. It returns the number appended; fewer than n only with
// ErrExhausted.
func (s *PostMapCols) DrawCols(n int, out *colscan.Cols) (int, error) {
	want := min(max(n, 0), s.total-s.drawn)
	s.moved.reserve(s.drawn + want)
	var pos [batch]int
	var recs [batch]int32
	var blks [batch]*colscan.Block
	for got := 0; got < want; got += batch {
		k := min(batch, want-got)
		// Incremental Fisher–Yates: positions [0, drawn) are the sample
		// so far, and a uniform pick j from the suffix extends it. The
		// prefix is never read again, so a swap records only what it
		// leaves at j.
		for i := range k {
			j := s.drawn + s.rng.IntN(s.total-s.drawn)
			pos[i] = s.moved.at(j)
			s.moved.set(j, s.moved.at(s.drawn))
			s.drawn++
		}
		for i, p := range pos[:k] {
			blks[i], recs[i] = s.locate(p)
		}
		for i, b := range blks[:k] {
			b.AppendCols(out, int(recs[i]))
		}
	}
	if want < n {
		return want, ErrExhausted
	}
	return want, nil
}

// locate resolves pool position p to its block and record, in the
// first span ending past p.
func (s *PostMapCols) locate(p int) (*colscan.Block, int32) {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].end > p })
	b, sp := s.blocks[i], &s.spans[i]
	if sp.sel == nil {
		return b, int32(b.NumRecords() - (sp.end - p))
	}
	return b, sp.sel[len(sp.sel)-(sp.end-p)]
}

// Release ends the pool: it gives back its hold on every pooled block,
// last first, so a scan cache too small for them all keeps the first
// ones — what the next fill over these splits takes first. Nothing may
// be drawn after.
func (s *PostMapCols) Release() {
	for _, b := range slices.Backward(s.blocks) {
		b.Release()
	}
	*s = PostMapCols{rng: s.rng}
}

// displaced is the shuffle's sparse state: each position a swap moved
// another position's record to, with that position. A position it does
// not hold holds its own record. Like offsetSet it is a flat
// open-addressed table kept at most half full; a slot packs position+1
// (0 is empty) over the value, so a pool holds fewer than 2³² records.
type displaced struct {
	slots []uint64
	shift uint // 64 − log2(len(slots))
}

// displacedMinSlots (2¹²) is the first table's size: room for the
// couple of thousand draws a post-map run makes from one pool.
const displacedMinSlots = 1 << 12

// find returns the slot holding position p, or the empty one it would
// take: a multiplicative (Fibonacci) hash, then a linear probe.
func (d *displaced) find(p int) int {
	key, mask := uint64(p+1), len(d.slots)-1
	i := int(key * 0x9e3779b97f4a7c15 >> d.shift)
	for d.slots[i] != 0 && d.slots[i]>>32 != key {
		i = (i + 1) & mask
	}
	return i
}

// at returns the position whose record sits at position p.
func (d *displaced) at(p int) int {
	if e := d.slots[d.find(p)]; e != 0 {
		return int(uint32(e))
	}
	return p
}

// set records that position v's record sits at position p.
func (d *displaced) set(p, v int) {
	d.slots[d.find(p)] = uint64(p+1)<<32 | uint64(uint32(v))
}

// reserve makes room for n entries (a stream of n draws sets at most
// n), growing the table at most once:
// into the smallest power of two of at least 2n slots.
func (d *displaced) reserve(n int) {
	if 2*n <= len(d.slots) {
		return
	}
	size := max(displacedMinSlots, 1<<bits.Len(uint(2*n-1)))
	old := d.slots
	d.slots, d.shift = make([]uint64, size), uint(64-bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e != 0 {
			d.slots[d.find(int(e>>32)-1)] = e
		}
	}
}
