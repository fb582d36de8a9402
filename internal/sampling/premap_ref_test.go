package sampling

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/simcost"
)

// perDrawPreMap is the reference sampler: the draw loop as it stood
// before a pass became one gather — one rng draw, one blockFor (a cache
// Peek per draw until the split's block is adopted), one ReadLineAt,
// one map lookup per iteration, and the linear walks over the owned
// splits. TestSampleLoopMatchesPerDrawReference holds PreMap to it
// record for record, counter for counter.
type perDrawPreMap struct {
	fs     *dfs.FileSystem
	path   string
	splits []dfs.Split
	size   int64
	owned  int64
	taken  []map[int64]struct{}
	nTaken int
	bytes  int64
	rng    *rand.Rand
	chunk  int

	colFormat colscan.Format
	cache     *colscan.Cache
	version   int64
	blocks    []*colscan.Block
	hits      []int
	parser    *Parser
}

func newPerDrawPreMap(t testing.TB, fsys *dfs.FileSystem, path string, splits []dfs.Split, seed uint64) *perDrawPreMap {
	t.Helper()
	size, err := fsys.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	r := &perDrawPreMap{fs: fsys, path: path, splits: splits, size: size, chunk: 256,
		rng: rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b))}
	r.taken = make([]map[int64]struct{}, len(splits))
	for i, sp := range splits {
		r.taken[i] = map[int64]struct{}{}
		r.owned += sp.Length
	}
	return r
}

func (r *perDrawPreMap) enableColumnar(t testing.TB, cache *colscan.Cache, f colscan.Format) {
	t.Helper()
	ver, err := r.fs.Version(r.path)
	if err != nil {
		t.Fatal(err)
	}
	r.colFormat, r.cache, r.version = f, cache, ver
	r.blocks = make([]*colscan.Block, len(r.splits))
	r.hits = make([]int, len(r.splits))
}

func (r *perDrawPreMap) hotThreshold(sp dfs.Split) int {
	return max(int(sp.Length/int64(2*r.chunk)), decodeAfterHits)
}

func (r *perDrawPreMap) blockFor(si int) (*colscan.Block, error) {
	if blk := r.blocks[si]; blk != nil {
		return blk, nil
	}
	sp := r.splits[si]
	if r.cache != nil {
		key := colscan.BlockKey{Path: r.path, Version: r.version, Offset: sp.Offset, Length: sp.Length, Format: r.colFormat}
		if blk, ok := r.cache.Peek(key); ok {
			r.blocks[si] = blk
			return blk, nil
		}
	}
	if r.hits[si] < r.hotThreshold(sp) {
		return nil, nil
	}
	blk, err := colscan.LoadSplit(r.cache, r.fs, r.path, r.version, r.size, sp.Offset, sp.Length, r.colFormat)
	if err != nil {
		return nil, err
	}
	r.blocks[si] = blk
	return blk, nil
}

// linearOwnedPos and linearSplitFor are the walks ownedPos and splitFor
// replaced; TestOwnedSplitSearchesMatchLinearWalk uses them too.
func linearOwnedPos(splits []dfs.Split, x int64) (int64, int) {
	for i := range splits {
		if x < splits[i].Length {
			return splits[i].Offset + x, i
		}
		x -= splits[i].Length
	}
	return splits[len(splits)-1].End() - 1, len(splits) - 1
}

func linearSplitFor(splits []dfs.Split, pos int64) (int, bool) {
	for i := range splits {
		if pos >= splits[i].Offset && pos < splits[i].End() {
			return i, true
		}
	}
	return 0, false
}

func (r *perDrawPreMap) sampleLoop(n int, recs *[]Record, cols *colscan.Cols) error {
	if r.size == 0 || r.owned == 0 {
		if n == 0 {
			return nil
		}
		return ErrExhausted
	}
	got := 0
	budget := 64*n + 4096
	for got < n && budget > 0 {
		budget--
		pos, si := linearOwnedPos(r.splits, r.rng.Int64N(r.owned))
		if cols != nil && r.parser == nil {
			blk, err := r.blockFor(si)
			if err != nil {
				return err
			}
			if blk != nil {
				if rec := blk.FindRecord(pos); rec >= 0 {
					start := blk.Start(rec)
					if _, dup := r.taken[si][start]; dup {
						continue
					}
					r.taken[si][start] = struct{}{}
					r.nTaken++
					r.bytes += int64(blk.RecLen(rec)) + 1
					blk.AppendCols(cols, rec)
					got++
					continue
				}
			}
		}
		line, start, err := r.fs.ReadLineAt(r.path, pos, r.chunk)
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		osi, ok := linearSplitFor(r.splits, start)
		if !ok {
			continue
		}
		if _, dup := r.taken[osi][start]; dup {
			continue
		}
		switch {
		case cols == nil:
			*recs = append(*recs, Record{Line: line, Split: osi, Offset: start})
		case r.parser != nil:
			err = r.parser.AppendLine(cols, line)
		default:
			err = colscan.AppendParsedLine(cols, r.colFormat, []byte(line))
		}
		if err != nil {
			return err
		}
		r.taken[osi][start] = struct{}{}
		r.nTaken++
		r.bytes += int64(len(line)) + 1
		if r.hits != nil {
			r.hits[osi]++
		}
		got++
	}
	if got < n {
		return ErrExhausted
	}
	return nil
}

// sampleWorld is one side of a twin: a filesystem with its own cost
// sink and its own scan cache, so reference and production never share
// a counter, a tick or a cached block.
type sampleWorld struct {
	fs    *dfs.FileSystem
	m     *simcost.Metrics
	cache *colscan.Cache
}

func newSampleWorld(t testing.TB, body []byte, blockSize int64, cacheBytes int64) *sampleWorld {
	t.Helper()
	w := &sampleWorld{m: &simcost.Metrics{}, cache: colscan.NewCache(cacheBytes)}
	w.fs = dfs.New(dfs.Config{BlockSize: blockSize, Replication: 2, DataNodes: 4, Metrics: w.m, Seed: 9, DisableSidecars: true})
	if err := w.fs.WriteFile("/data", body); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSampleLoopMatchesPerDrawReference drives PreMap and the per-draw
// reference through the same calls on twin worlds and requires, after
// every call: the same records in the same order, the same error, the
// same Taken and size estimates, the same modelled cost, the same scan
// cache traffic — and at the end the same next rng draw. The shapes
// cover what a pass has to get right: splits that cross hotThreshold in
// the middle of a pass (24-byte seek windows over 1 KiB splits make
// a split hot at 42 hits), blocks an earlier sampler left in the
// cache (adopted at the first draw that lands in the split), positions
// before a split's first record (1 KiB is not a whole number of
// records), ragged ownership, a region sampled dry, a scan cache small
// enough to evict, and a sampler used through Sample and SampleCols in
// turn.
func TestSampleLoopMatchesPerDrawReference(t *testing.T) {
	numeric := func(n int) []byte {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%09.4f\n", float64(i%977)*1.25)
		}
		return []byte(b.String())
	}
	kv := func(n int) []byte {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "g%d\t%g\n", i%7, float64(i%313)/8)
		}
		return []byte(b.String())
	}
	parser := &Parser{Keyed: true, Parse: func(line string) (string, float64, error) {
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, "0"), 64)
		return line[:2], v, err
	}}
	everySecond := func(splits []dfs.Split) []dfs.Split {
		var out []dfs.Split
		for i, sp := range splits {
			if i%2 == 1 || i == 0 {
				out = append(out, sp)
			}
		}
		return out
	}
	type step struct {
		n    int
		cols bool // SampleCols, else Sample
	}
	cases := []struct {
		name     string
		body     []byte
		format   colscan.Format // FormatNone: EnableParser or plain Sample
		parser   *Parser
		own      func([]dfs.Split) []dfs.Split
		warm     int   // records an earlier sampler draws first, leaving its blocks in the cache
		cache    int64 // scan cache bytes (0: the default, nothing evicted)
		noCache  bool
		steps    []step
		wantLast error
	}{
		{name: "numeric", body: numeric(4000), format: colscan.FormatNumeric,
			steps: []step{{5, true}, {300, true}, {1500, true}, {0, true}, {700, true}}},
		{name: "numeric/no-cache", body: numeric(4000), format: colscan.FormatNumeric, noCache: true,
			steps: []step{{1200, true}, {900, true}}},
		{name: "numeric/adopted", body: numeric(4000), format: colscan.FormatNumeric, warm: 1800,
			steps: []step{{40, true}, {900, true}, {600, true}}},
		{name: "numeric/evicting-cache", body: numeric(4000), format: colscan.FormatNumeric, warm: 1500, cache: 6 << 10,
			steps: []step{{800, true}, {1200, true}}},
		{name: "numeric/ragged", body: numeric(4000), format: colscan.FormatNumeric, own: everySecond, warm: 900,
			steps: []step{{200, true}, {800, true}}},
		{name: "numeric/dry", body: numeric(600), format: colscan.FormatNumeric, own: everySecond,
			steps: []step{{150, true}, {400, true}}, wantLast: ErrExhausted},
		{name: "kv", body: kv(3000), format: colscan.FormatKV, warm: 600,
			steps: []step{{64, true}, {1100, true}, {500, true}}},
		{name: "parser", body: numeric(3000), parser: parser,
			steps: []step{{10, true}, {1400, true}}},
		{name: "lines", body: numeric(3000),
			steps: []step{{3, false}, {1300, false}, {2000, false}}, wantLast: ErrExhausted},
		{name: "lines-then-cols", body: numeric(4000), format: colscan.FormatNumeric,
			steps: []step{{400, false}, {900, true}, {300, false}, {1000, true}}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				ref := newSampleWorld(t, tc.body, 4<<10, tc.cache)
				got := newSampleWorld(t, tc.body, 4<<10, tc.cache)
				if tc.noCache {
					ref.cache, got.cache = nil, nil
				}
				all, err := got.fs.Splits("/data", 1<<10)
				if err != nil {
					t.Fatal(err)
				}
				if tc.warm > 0 {
					// An earlier query over the whole file, on both worlds.
					for _, w := range []*sampleWorld{ref, got} {
						s, err := NewPreMap(w.fs, "/data", 1<<10, seed+100)
						if err != nil {
							t.Fatal(err)
						}
						s.chunk = 12
						if err := s.EnableColumnar(w.cache, tc.format); err != nil {
							t.Fatal(err)
						}
						var cols colscan.Cols
						if _, err := s.SampleCols(tc.warm, &cols); err != nil {
							t.Fatal(err)
						}
					}
				}
				owned := all
				if tc.own != nil {
					owned = tc.own(all)
				}
				s, err := NewPreMapOwned(got.fs, "/data", owned, seed)
				if err != nil {
					t.Fatal(err)
				}
				r := newPerDrawPreMap(t, ref.fs, "/data", owned, seed)
				s.chunk, r.chunk = 12, 12
				switch {
				case tc.format != colscan.FormatNone:
					if err := s.EnableColumnar(got.cache, tc.format); err != nil {
						t.Fatal(err)
					}
					r.enableColumnar(t, ref.cache, tc.format)
				case tc.parser != nil:
					s.EnableParser(tc.parser)
					r.parser = tc.parser
				}
				promoted := false
				for i, st := range tc.steps {
					where := fmt.Sprintf("step %d (n=%d cols=%v)", i, st.n, st.cols)
					var gotCols, refCols colscan.Cols
					var gotRecs, refRecs []Record
					var gerr, rerr error
					if st.cols {
						_, gerr = s.SampleCols(st.n, &gotCols)
						rerr = r.sampleLoop(st.n, nil, &refCols)
					} else {
						gotRecs, gerr = s.Sample(st.n)
						refRecs = make([]Record, 0, st.n)
						rerr = r.sampleLoop(st.n, &refRecs, nil)
					}
					if !errors.Is(gerr, rerr) || (gerr == nil) != (rerr == nil) {
						t.Fatalf("%s: err %v, reference %v", where, gerr, rerr)
					}
					if i == len(tc.steps)-1 && !errors.Is(gerr, tc.wantLast) {
						t.Fatalf("%s: err %v, the case wants %v", where, gerr, tc.wantLast)
					}
					if !reflect.DeepEqual(gotCols, refCols) {
						t.Fatalf("%s: %d column records differ from the reference's %d", where, gotCols.Len(), refCols.Len())
					}
					if len(gotRecs) != len(refRecs) || (len(refRecs) > 0 && !reflect.DeepEqual(gotRecs, refRecs)) {
						t.Fatalf("%s: %d line records differ from the reference's %d", where, len(gotRecs), len(refRecs))
					}
					if s.nTaken != r.nTaken || s.bytes != r.bytes {
						t.Fatalf("%s: taken %d (%d bytes), reference %d (%d bytes)", where, s.nTaken, s.bytes, r.nTaken, r.bytes)
					}
					if g, w := got.m.Snapshot(), ref.m.Snapshot(); g != w {
						t.Fatalf("%s: modelled cost %+v, reference %+v", where, g, w)
					}
					if got.cache != nil {
						if g, w := got.cache.Stats(), ref.cache.Stats(); g != w {
							t.Fatalf("%s: scan cache %+v, reference %+v", where, g, w)
						}
					}
					for si := range s.blocks {
						if (s.blocks[si] != nil) != (r.blocks[si] != nil) {
							t.Fatalf("%s: split %d has a block: %v, reference: %v", where, si, s.blocks[si] != nil, r.blocks[si] != nil)
						}
						if s.hits[si] != r.hits[si] {
							t.Fatalf("%s: split %d has %d hits, reference %d", where, si, s.hits[si], r.hits[si])
						}
						promoted = promoted || (s.blocks[si] != nil && s.hits[si] >= s.hotThreshold(s.splits[si]))
					}
				}
				if g, w := s.rng.Uint64(), r.rng.Uint64(); g != w {
					t.Fatalf("next rng draw %#x, reference %#x", g, w)
				}
				if tc.format != colscan.FormatNone && tc.wantLast == nil && !promoted {
					t.Fatal("no split crossed its hot threshold: the case does not exercise promotion")
				}
			})
		}
	}
}

// TestOwnedSplitSearchesMatchLinearWalk holds ownedPos and splitFor to
// the linear walks they replaced, exhaustively: every x from below zero
// to past the owned total (the clamp at the last split's end), every
// file position, over split lists that are contiguous, ragged, hold
// empty splits, and are not in offset order.
func TestOwnedSplitSearchesMatchLinearWalk(t *testing.T) {
	fsys := dfs.New(dfs.Config{BlockSize: 1 << 10, Replication: 1, DataNodes: 1, Seed: 1})
	if err := fsys.WriteFile("/f", make([]byte, 700)); err != nil {
		t.Fatal(err)
	}
	sp := func(off, length int64) dfs.Split { return dfs.Split{Path: "/f", Offset: off, Length: length} }
	lists := map[string][]dfs.Split{
		"one":        {sp(0, 700)},
		"contiguous": {sp(0, 100), sp(100, 37), sp(137, 263), sp(400, 300)},
		"ragged":     {sp(10, 90), sp(137, 1), sp(300, 64), sp(690, 10)},
		"empties":    {sp(0, 0), sp(0, 50), sp(50, 0), sp(50, 0), sp(50, 25), sp(200, 0), sp(200, 9)},
		"unordered":  {sp(400, 100), sp(0, 100), sp(250, 50), sp(100, 17)},
		"all-empty":  {sp(5, 0), sp(9, 0)},
	}
	for name, splits := range lists {
		s, err := NewPreMapOwned(fsys, "/f", splits, 1)
		if err != nil {
			t.Fatal(err)
		}
		for x := int64(-3); x <= s.owned+3; x++ {
			if s.owned == 0 || x < 0 {
				continue // Int64N(owned) draws from [0, owned)
			}
			gp, gi := s.ownedPos(x)
			wp, wi := linearOwnedPos(splits, x)
			if gp != wp || gi != wi {
				t.Fatalf("%s: ownedPos(%d) = (%d, %d), linear walk (%d, %d)", name, x, gp, gi, wp, wi)
			}
		}
		for pos := int64(-2); pos <= 702; pos++ {
			gi, gok := s.splitFor(pos)
			wi, wok := linearSplitFor(splits, pos)
			if gi != wi || gok != wok {
				t.Fatalf("%s: splitFor(%d) = (%d, %v), linear walk (%d, %v)", name, pos, gi, gok, wi, wok)
			}
		}
	}
}

// FuzzOffsetSet drives the without-replacement set against the map it
// replaced: a byte string read as a sequence of inserts (small offsets
// that collide and repeat, large ones that exercise the hash's high
// bits), reserves and restarts from an empty set.
func FuzzOffsetSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 250, 7, 7})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over, the quick brown fox"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s offsetSet
		ref := map[int64]struct{}{}
		for i, b := range ops {
			switch {
			case b == 255:
				s = offsetSet{}
				clear(ref)
				continue
			case b == 254:
				s.reserve(len(ref) + int(ops[i/2]))
				continue
			}
			off := int64(b)
			if i%3 == 0 {
				off = off*19<<24 + int64(i%5)*19 // record starts far into a file
			}
			_, dup := ref[off]
			ref[off] = struct{}{}
			if added := s.add(off); added == dup {
				t.Fatalf("op %d: add(%d) = %v with the offset present: %v", i, off, added, dup)
			}
			if s.n != len(ref) {
				t.Fatalf("op %d: set holds %d offsets, the map %d", i, s.n, len(ref))
			}
		}
		for off := range ref {
			if s.add(off) {
				t.Fatalf("offset %d was in the map but not in the set", off)
			}
		}
	})
}
