package sampling

import (
	"math/rand/v2"
	"slices"

	"repro/internal/colscan"
	"repro/internal/pool"
)

// PostMapCols implements the paper's Algorithm 1: the map side reads and
// parses *all* input, pools the records, and then repeatedly sends
// uniform without-replacement subsets downstream until the error is low
// enough. Compared to PreMap it pays the full load cost but knows the
// exact record count, so result correction is exact (§3.3, §6.5). The
// map-side scan decodes each split into one shared columnar block and
// the pool is a flat slice of 8-byte (block, record) references; draws
// are an incremental Fisher–Yates shuffle ("the key, value pairs already
// sent are removed from the hashmap") that delivers parsed columns
// straight to the engine's batch route.
type PostMapCols struct {
	blocks []*colscan.Block
	refs   []colRef
	expect int // blocks the fill will add, 0 if it did not say
	drawn  int
	rng    *rand.Rand
}

type colRef struct {
	blk int32
	rec int32
}

// refSpares holds released pools' refs arrays for the next fill.
var refSpares pool.Spares[colRef]

// NewPostMapCols builds an empty pool with its own seeded rng stream.
func NewPostMapCols(seed uint64) *PostMapCols {
	return &PostMapCols{rng: rand.New(rand.NewPCG(seed, 0x3c6ef372fe94f82b))}
}

// ExpectBlocks tells an empty pool how many blocks its fill is about to
// add. The first of them then sizes the whole pool — the splits a
// mapper owns are equal tiles of their segment, so blocks × the first
// block's pooled count is what the fill ends near — and refs is
// allocated once instead of regrown and re-copied as each block
// arrives. An estimate that falls short grows like any append.
func (s *PostMapCols) ExpectBlocks(n int) { s.expect = n }

// AddBlock pools every record of one decoded split. Blocks are added
// in split order before the first draw.
func (s *PostMapCols) AddBlock(b *colscan.Block) {
	bi := int32(len(s.blocks))
	s.blocks = append(s.blocks, b)
	refs := s.reserve(b.NumRecords())
	for r := range refs {
		refs[r] = colRef{blk: bi, rec: int32(r)}
	}
}

// AddBlockKept pools only the given records (ascending indices into b)
// of one decoded split — the predicate-pushdown fill: a filtering run
// pools the σ-surviving records of each cached block, so the pool IS
// the filtered subpopulation and a fixed seed draws the same record
// permutation as a pool built from a physically pre-filtered file.
func (s *PostMapCols) AddBlockKept(b *colscan.Block, kept []int32) {
	bi := int32(len(s.blocks))
	s.blocks = append(s.blocks, b)
	refs := s.reserve(len(kept))
	for i, r := range kept {
		refs[i] = colRef{blk: bi, rec: r}
	}
}

// reserve extends refs by the n entries of the block just added, for
// the caller to fill: capacity is taken once per block, not checked
// once per record — and for every expected block at once on the first,
// from a released pool's refs where one is large enough.
func (s *PostMapCols) reserve(n int) []colRef {
	at, room := len(s.refs), n
	if len(s.blocks) == 1 {
		if room = n * max(s.expect, 1); room > 0 {
			s.refs, _ = refSpares.Take(room)
			s.refs = s.refs[:0]
		}
	}
	s.refs = slices.Grow(s.refs, room)[:at+n]
	return s.refs[at:]
}

// Total returns the number of records pooled.
func (s *PostMapCols) Total() int { return len(s.refs) }

// Remaining returns how many pooled records have not been drawn yet.
func (s *PostMapCols) Remaining() int { return len(s.refs) - s.drawn }

// DrawCols appends n records drawn uniformly without replacement to
// out. It returns the number appended; fewer than n only with
// ErrExhausted.
func (s *PostMapCols) DrawCols(n int, out *colscan.Cols) (int, error) {
	got := 0
	for got < n {
		if s.drawn >= len(s.refs) {
			return got, ErrExhausted
		}
		// Incremental Fisher–Yates: the prefix [0, drawn) is the sample
		// so far; one uniform pick from the suffix extends it.
		j := s.drawn + s.rng.IntN(len(s.refs)-s.drawn)
		s.refs[s.drawn], s.refs[j] = s.refs[j], s.refs[s.drawn]
		ref := s.refs[s.drawn]
		s.blocks[ref.blk].AppendCols(out, int(ref.rec))
		s.drawn++
		got++
	}
	return got, nil
}

// Reset forgets draw state, restarting the without-replacement stream
// over the same pool.
func (s *PostMapCols) Reset() {
	s.drawn = 0
}

// Release ends the pool: it gives back its hold on every pooled block
// and parks refs for the next pool's fill. Nothing may be drawn after.
func (s *PostMapCols) Release() {
	for _, b := range s.blocks {
		b.Release()
	}
	refSpares.Put(s.refs)
	s.blocks, s.refs, s.drawn = nil, nil, 0
}
