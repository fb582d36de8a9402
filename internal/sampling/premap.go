// Package sampling implements EARL's two samplers over the simulated DFS
// — pre-map sampling (Algorithm 2 of the paper: random line offsets read
// directly from file splits before any mapper sees them) and post-map
// sampling (Algorithm 1: hash-pooled key/value pairs drawn without
// replacement after the map-side read) — together with the two baselines
// Fig. 9's sampler ablation compares them against: reservoir sampling
// (uniform but reads everything) and block sampling (fast but biased
// under clustered layouts).
package sampling

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/colscan"
	"repro/internal/dfs"
)

// ErrExhausted is returned when a sampler cannot produce more distinct
// records than the file contains.
var ErrExhausted = errors.New("sampling: sample space exhausted")

// Record is one sampled line with its provenance.
type Record struct {
	Line   string
	Split  int   // index of the split it came from
	Offset int64 // file offset where the line starts
}

// PreMap samples whole lines directly from a DFS file *before* map-side
// loading — the paper's fastest path, because no full scan is needed.
// It maintains, per logical split, the set of line-start offsets already
// included (the paper's "bit-vector representing the start byte locations
// of the lines we had already included", §3.3), so repeated Sample calls
// extend the sample without replacement — the Δs expansions of the EARL
// iteration.
//
// Uniformity caveat (also the paper's): positions are drawn uniformly
// over bytes and backtracked to line starts, so a line's inclusion
// probability is proportional to its length. For fixed-width records —
// the common case for numeric data — this is exactly uniform; for
// variable-length records the paper accepts the approximation, and so do
// we (documented here, measured in the Fig. 9 ablation).
type PreMap struct {
	fs     dfs.View
	path   string
	splits []dfs.Split // the splits this sampler owns
	before []int64     // before[i]: owned bytes ahead of splits[i]; before[len(splits)] == owned
	byOff  []int       // owned split indices, ascending by (Offset, End)
	size   int64       // whole-file size
	owned  int64       // total bytes of owned splits
	taken  offsetSet   // sampled line-start offsets
	nTaken int
	bytes  int64 // total bytes of sampled lines (for record-count estimates)
	rng    *rand.Rand
	chunk  int

	// Columnar state (EnableColumnar): draws resolve against decoded
	// split blocks instead of per-record ReadLineAt seeks, once a split
	// is hot enough to be worth decoding (or another watch already paid
	// for its block in the shared cache).
	colFormat colscan.Format
	cache     *colscan.Cache
	version   int64
	blocks    []*colscan.Block // per owned split, lazily resolved
	hits      []int            // per owned split: seek-path resolutions so far
	peeked    []uint32         // per owned split: the call (s.call) that last looked for its block in the cache
	call      uint32           // sampleLoop calls so far

	// parser (EnableParser) decodes SampleCols draws with a custom parser
	// instead of a built-in format: every draw stays a positioned read,
	// and no split is ever promoted to a cached block.
	parser *Parser

	draw drawState
}

// drawState is sampleLoop's per-call state, held on the sampler so that
// a call in steady state allocates nothing: the pass's drawn positions,
// how far it has resolved them, what the call has taken and where it
// goes, and the ReadLinesAt callback, bound once.
type drawState struct {
	pos      []int64
	in       []int // in[i]: the owned split pos[i] was drawn in
	next     int   // the first position of the pass not yet resolved
	got      int
	columnar bool
	recs     *[]Record
	cols     *colscan.Cols
	seek     func(i int, line []byte, start int64, err error) (bool, error) // s.seekLine
}

// decodeAfterHits is the floor of the per-split hot threshold: below
// it, draws always stay on the positioned-read path (a pilot probing
// 256 records, or an o(N) refresh reading ~24, must not decode whole
// splits). The full threshold is byte-break-even (hotThreshold): a
// split is decoded only once its seek windows would have read about as
// many bytes as the split body itself, so columnar decode never
// inflates a run's I/O beyond ~2x the pure seek path — the §3.3
// sub-scan property figures 5 and 10 reproduce. A block already
// decoded by anyone else is adopted from the cache without counting
// toward the threshold; a split is looked up there once per Sample or
// SampleCols call, at the call's first draw that lands in it.
const decodeAfterHits = 32

// hotThreshold returns the seek-hit count at which decoding sp becomes
// byte-neutral: hits × seek-window ≥ split length, floored at
// decodeAfterHits.
func (s *PreMap) hotThreshold(sp dfs.Split) int {
	window := s.chunk
	if window <= 0 {
		window = 256 // ReadLineAt's default chunk
	}
	t := int(sp.Length / int64(2*window))
	if t < decodeAfterHits {
		t = decodeAfterHits
	}
	return t
}

// NewPreMap opens a pre-map sampler over path, using splits of splitSize
// bytes (DFS block size if 0).
func NewPreMap(fsys dfs.View, path string, splitSize int64, seed uint64) (*PreMap, error) {
	splits, err := fsys.Splits(path, splitSize)
	if err != nil {
		return nil, err
	}
	return NewPreMapOwned(fsys, path, splits, seed)
}

// NewPreMapOwned opens a pre-map sampler restricted to the given splits
// of path — the per-mapper ownership EARL uses so that parallel map
// tasks sample disjoint regions without coordination. A drawn line is
// accepted only if it *starts* inside an owned split, so two samplers
// with disjoint split sets can never sample the same record.
func NewPreMapOwned(fsys dfs.View, path string, splits []dfs.Split, seed uint64) (*PreMap, error) {
	if len(splits) == 0 {
		return nil, errors.New("sampling: no splits owned")
	}
	size, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	before := make([]int64, len(splits)+1)
	byOff := make([]int, len(splits))
	for i, sp := range splits {
		before[i+1] = before[i] + sp.Length
		byOff[i] = i
	}
	slices.SortStableFunc(byOff, func(a, b int) int {
		return cmp.Or(cmp.Compare(splits[a].Offset, splits[b].Offset), cmp.Compare(splits[a].End(), splits[b].End()))
	})
	s := &PreMap{
		fs:     fsys,
		path:   path,
		splits: splits,
		before: before,
		byOff:  byOff,
		size:   size,
		owned:  before[len(splits)],
		rng:    rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b)),
		chunk:  256,
	}
	s.draw.seek = s.seekLine
	return s, nil
}

// EnableColumnar switches this sampler's draws onto the vectorized scan
// path: hot splits are decoded once into colscan blocks (through cache
// when non-nil, so concurrent watches share the decode) and SampleCols
// delivers parsed columns instead of raw lines. The record sequence a
// fixed seed produces is bit-identical to the Sample path — both
// resolve the same drawn byte positions to the same record starts and
// keep the same without-replacement bookkeeping.
func (s *PreMap) EnableColumnar(cache *colscan.Cache, format colscan.Format) error {
	if format == colscan.FormatNone {
		return errors.New("sampling: EnableColumnar needs a concrete format")
	}
	ver, err := s.fs.Version(s.path)
	if err != nil {
		return err
	}
	s.colFormat = format
	s.cache = cache
	s.version = ver
	s.blocks = make([]*colscan.Block, len(s.splits))
	s.hits = make([]int, len(s.splits))
	s.peeked = make([]uint32, len(s.splits))
	return nil
}

// EnableParser is EnableColumnar for records only a custom parser can
// decode: SampleCols parses each drawn line through p. The record
// sequence a fixed seed produces is the Sample path's, as under
// EnableColumnar.
func (s *PreMap) EnableParser(p *Parser) { s.parser = p }

// Sample draws n additional distinct lines uniformly at random, extending
// the sample drawn so far (sampling without replacement across calls). It
// returns fewer than n records only with ErrExhausted.
func (s *PreMap) Sample(n int) ([]Record, error) {
	out := make([]Record, 0, n)
	err := s.sampleLoop(n, &out, nil)
	return out, err
}

// SampleCols is Sample on the columnar path: the n drawn records are
// appended to out as parsed columns (values, plus keys under FormatKV),
// validated by the colscan decoder (NaN/±Inf reject). It returns the
// number of records appended; fewer than n only with ErrExhausted.
// EnableColumnar or EnableParser must have been called. Any other
// error — a bad record, a block with no live replica — fails the call
// part-way through a pass whose positions were all drawn before the
// first was read, so the rng stands a few draws past the failing record:
// a sampler that has returned one is not resumed (every caller fails
// the run or the mapper).
func (s *PreMap) SampleCols(n int, out *colscan.Cols) (int, error) {
	if s.colFormat == colscan.FormatNone && s.parser == nil {
		return 0, errors.New("sampling: SampleCols before EnableColumnar or EnableParser")
	}
	before := out.Len()
	err := s.sampleLoop(n, nil, out)
	return out.Len() - before, err
}

// passMax bounds how many positions one pass draws ahead of reading
// them — the size of the pass's scratch, not of the sample.
const passMax = 4096

// sampleLoop is the shared draw loop behind Sample and SampleCols: one
// rng draw per position, the same rejection and without-replacement
// bookkeeping on both paths, so a fixed seed yields the same record
// sequence regardless of which entry point (or mix) consumes it.
//
// A position yields at most one record, so a pass draws the positions
// it still needs up front — never more than one draw at a time would
// have made — and then resolves them in order: against a decoded block
// where the position's split has one, as one dfs.ReadLinesAt gather for
// a run of positions whose splits have none. A run ends before the
// first position whose split has a block or is due one, so a split is
// promoted at exactly the draw it would be promoted at one at a time.
func (s *PreMap) sampleLoop(n int, recs *[]Record, cols *colscan.Cols) error {
	if s.size == 0 || s.owned == 0 {
		if n == 0 {
			return nil
		}
		return ErrExhausted
	}
	s.call++
	s.taken.reserve(s.nTaken + n)
	d := &s.draw
	if want := min(n, passMax); cap(d.pos) < want {
		d.pos, d.in = make([]int64, 0, want), make([]int, 0, want)
	}
	d.got, d.columnar, d.recs, d.cols = 0, cols != nil && s.parser == nil, recs, cols
	defer d.release()
	// Retry budget: rejection sampling against the already-taken set. As
	// the sampled fraction approaches 1 the rejection rate rises; the
	// budget scales generously so legitimate draws still succeed, and a
	// truly exhausted file terminates via the budget.
	budget := 64*n + 4096
	for d.got < n && budget > 0 {
		// Pick random byte positions uniformly over the *owned* splits (a
		// random split weighted by its length, then a random position
		// inside it — the paper's per-split bookkeeping).
		pass := min(n-d.got, budget, passMax)
		budget -= pass
		d.pos, d.in = d.pos[:0], d.in[:0]
		for range pass {
			p, si := s.ownedPos(s.rng.Int64N(s.owned))
			d.pos, d.in = append(d.pos, p), append(d.in, si)
		}
		for d.next = 0; d.next < pass; {
			if d.columnar {
				blk, err := s.blockFor(d.in[d.next])
				if err != nil {
					return err
				}
				if blk != nil {
					if rec := blk.FindRecord(d.pos[d.next]); rec >= 0 {
						d.next++
						if s.taken.add(blk.Start(rec)) {
							s.nTaken++
							s.bytes += int64(blk.RecLen(rec)) + 1
							blk.AppendCols(cols, rec)
							d.got++
						}
						continue
					}
					// pos precedes the split's first record (the tail of a
					// record owned by the previous split): the seek below
					// backtracks across the boundary and rejects it.
				}
			}
			if err := s.fs.ReadLinesAt(s.path, d.pos[d.next:], s.chunk, d.seek); err != nil {
				return err
			}
		}
	}
	if d.got < n {
		return ErrExhausted
	}
	return nil
}

// seekLine takes one position of a sampleLoop pass's ReadLinesAt run,
// and ends the run before a position that is no longer a seek.
func (s *PreMap) seekLine(_ int, line []byte, start int64, err error) (bool, error) {
	d := &s.draw
	d.next++
	switch {
	case err == io.EOF:
	case err != nil:
		return false, err
	default:
		taken, err := s.take(line, start, d.recs, d.cols)
		if err != nil {
			return false, err
		}
		if taken {
			d.got++
		}
	}
	return !d.columnar || (d.next < len(d.pos) && s.onSeekPath(d.in[d.next])), nil
}

// release drops the call's destinations, so the sampler does not keep a
// caller's output alive between calls.
func (d *drawState) release() { d.recs, d.cols = nil, nil }

// take accepts the record a positioned read resolved, unless it starts
// outside the owned splits or is already in the sample. The offset is
// marked taken before the record is parsed; a record that then fails to
// parse fails the call.
func (s *PreMap) take(line []byte, start int64, recs *[]Record, cols *colscan.Cols) (bool, error) {
	// Backtracking can cross a split boundary: accept the line only if
	// it starts inside an owned split, so samplers with disjoint
	// ownership stay disjoint.
	osi, ok := s.splitFor(start)
	if !ok || !s.taken.add(start) {
		return false, nil
	}
	var err error
	switch {
	case cols == nil:
		*recs = append(*recs, Record{Line: string(line), Split: osi, Offset: start})
	case s.parser != nil:
		err = s.parser.AppendLine(cols, string(line))
	default:
		err = colscan.AppendParsedLine(cols, s.colFormat, line)
	}
	if err != nil {
		return false, err
	}
	s.nTaken++
	s.bytes += int64(len(line)) + 1
	if s.hits != nil {
		s.hits[osi]++
	}
	return true, nil
}

// onSeekPath reports whether a draw in owned split si is a positioned
// read: the split has no decoded block, the shared cache holds none to
// adopt, and its hits have not yet made it worth decoding.
func (s *PreMap) onSeekPath(si int) bool {
	if s.blocks[si] != nil {
		return false
	}
	if s.cache != nil && s.peeked[si] != s.call {
		s.peeked[si] = s.call
		sp := s.splits[si]
		key := colscan.BlockKey{Path: s.path, Version: s.version, Offset: sp.Offset, Length: sp.Length, Format: s.colFormat}
		if blk, ok := s.cache.Peek(key); ok {
			s.blocks[si] = blk
			return false
		}
	}
	return s.hits[si] < s.hotThreshold(s.splits[si])
}

// blockFor resolves the decoded block for owned split si, or nil while
// the split is on the seek path. A split that has reached its hot
// threshold is decoded here.
func (s *PreMap) blockFor(si int) (*colscan.Block, error) {
	if s.onSeekPath(si) {
		return nil, nil
	}
	if blk := s.blocks[si]; blk != nil {
		return blk, nil
	}
	sp := s.splits[si]
	blk, err := colscan.LoadSplit(s.cache, s.fs, s.path, s.version, s.size, sp.Offset, sp.Length, s.colFormat)
	if err != nil {
		return nil, err
	}
	// Charge the decode like the scan it is: the whole split body in one
	// positioned read (colscan already issued it through s.fs, so dfs
	// metrics saw the bytes and the seek — nothing extra to do here).
	s.blocks[si] = blk
	return blk, nil
}

// ownedPos maps x ∈ [0, owned) to a file offset inside the owned splits,
// also returning the owned-split index it landed in: the first split
// the running total of lengths carries past x.
func (s *PreMap) ownedPos(x int64) (int64, int) {
	i := sort.Search(len(s.splits), func(i int) bool { return x < s.before[i+1] })
	if i == len(s.splits) {
		return s.splits[i-1].End() - 1, i - 1
	}
	return s.splits[i].Offset + x - s.before[i], i
}

// splitFor returns the index of the owned split containing pos (owned
// splits are disjoint): the last one, by offset, that starts at or
// before pos, if pos is inside it.
func (s *PreMap) splitFor(pos int64) (int, bool) {
	k := sort.Search(len(s.byOff), func(k int) bool { return s.splits[s.byOff[k]].Offset > pos })
	if k == 0 {
		return 0, false
	}
	if i := s.byOff[k-1]; pos < s.splits[i].End() {
		return i, true
	}
	return 0, false
}

// Taken returns how many distinct lines have been sampled so far.
func (s *PreMap) Taken() int { return s.nTaken }

// OwnedBytes returns the total byte length of the splits this sampler
// owns (the whole file for NewPreMap).
func (s *PreMap) OwnedBytes() int64 { return s.owned }

// EstimatedTotalRecords estimates the file's record count from the mean
// length of sampled lines — the "estimate of the number of the key,value
// pairs produced by the pre-map sampling" the paper calls good enough for
// result correction (§3.3).
func (s *PreMap) EstimatedTotalRecords() int64 {
	if s.nTaken == 0 {
		return 0
	}
	avg := float64(s.bytes) / float64(s.nTaken)
	if avg <= 0 {
		return 0
	}
	return int64(float64(s.size)/avg + 0.5)
}

// Release gives back the holds on the decoded blocks the sampler adopted
// from the cache or loaded through it. Nothing may be drawn after.
func (s *PreMap) Release() {
	for i, b := range s.blocks {
		b.Release()
		s.blocks[i] = nil
	}
}

// Repin re-points the sampler's reads at v. A sampler built against a
// snapshot is repinned to the live filesystem once the build is done —
// held, the snapshot would keep its commit's namespace and every file
// state in it alive for as long as the sampler lives; the
// without-replacement bookkeeping, the rng stream and any adopted
// decoded blocks all carry over — over append-only growth the bytes the
// sampler owns are identical through either view.
func (s *PreMap) Repin(v dfs.View) { s.fs = v }

// String describes the sampler state.
func (s *PreMap) String() string {
	return fmt.Sprintf("premap(%s: %d splits, %d taken)", s.path, len(s.splits), s.nTaken)
}
