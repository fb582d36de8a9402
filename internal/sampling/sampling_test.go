package sampling

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// fixtureFS writes n fixed-width numeric records and returns the fs.
func fixtureFS(t testing.TB, n int, clustered bool) (*dfs.FileSystem, []float64, *simcost.Metrics) {
	t.Helper()
	var m simcost.Metrics
	fsys := dfs.New(dfs.Config{BlockSize: 1 << 12, Replication: 2, DataNodes: 4, Metrics: &m, Seed: 9})
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: n, Seed: 17, Clustered: clustered}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-width encoding makes byte-position sampling exactly uniform.
	buf := make([]byte, 0, n*11)
	for _, x := range xs {
		buf = append(buf, fmt.Sprintf("%09.4f\n", x)...)
	}
	if err := fsys.WriteFile("/data", buf); err != nil {
		t.Fatal(err)
	}
	return fsys, xs, &m
}

// TestPreMapResidentDrawsAllocateNothing: once a split's block is
// resident, a SampleCols call of the engine mapper's size (128 records)
// allocates nothing when the output and the offset set have room — a
// pass's positions and the seek callback are the sampler's own.
func TestPreMapResidentDrawsAllocateNothing(t *testing.T) {
	const n, draw = 200_000, 128
	xs, err := workload.NumericSpec{Dist: workload.Zipf, N: n, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	fsys := dfs.New(dfs.Config{BlockSize: 8 << 20, Replication: 2, DataNodes: 4, Seed: 9, DisableSidecars: true})
	if err := fsys.WriteFile("/data", workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	cache := colscan.NewCache(64 << 20)
	s, err := NewPreMap(fsys, "/data", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableColumnar(cache, colscan.FormatNumeric); err != nil {
		t.Fatal(err)
	}
	sp := s.splits[0]
	if _, err := colscan.LoadSplit(cache, fsys, "/data", s.version, s.size, sp.Offset, sp.Length, colscan.FormatNumeric); err != nil {
		t.Fatal(err)
	}
	out := colscan.Cols{Vals: make([]float64, 0, draw)}
	if _, err := s.SampleCols(draw, &out); err != nil {
		t.Fatal(err)
	}
	if len(s.splits) != 1 || s.blocks[0] == nil {
		t.Fatalf("%d splits, block adopted %v: the file is not one resident split", len(s.splits), s.blocks[0] != nil)
	}
	s.taken.reserve(n)
	allocs := testing.AllocsPerRun(200, func() {
		out.Vals = out.Vals[:0]
		if _, err := s.SampleCols(draw, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a %d-record draw from a resident block allocated %v times, want 0", draw, allocs)
	}
}

func TestPreMapDistinctAndValid(t *testing.T) {
	fsys, xs, _ := fixtureFS(t, 2000, false)
	s, err := NewPreMap(fsys, "/data", 1<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.Sample(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 || s.Taken() != 300 {
		t.Fatalf("sampled %d (taken %d), want 300", len(recs), s.Taken())
	}
	seen := map[int64]bool{}
	valid := map[string]bool{}
	for _, x := range xs {
		valid[fmt.Sprintf("%09.4f", x)] = true
	}
	for _, r := range recs {
		if seen[r.Offset] {
			t.Fatalf("duplicate offset %d", r.Offset)
		}
		seen[r.Offset] = true
		if !valid[r.Line] {
			t.Fatalf("sampled line %q not in dataset", r.Line)
		}
		if r.Offset%10 != 0 {
			t.Fatalf("offset %d not a record boundary", r.Offset)
		}
	}
}

func TestPreMapExpansionStaysDistinct(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 500, false)
	s, err := NewPreMap(fsys, "/data", 1<<10, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for round := 0; round < 5; round++ {
		recs, err := s.Sample(80)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, r := range recs {
			if seen[r.Offset] {
				t.Fatalf("round %d re-sampled offset %d", round, r.Offset)
			}
			seen[r.Offset] = true
		}
	}
	if s.Taken() != 400 {
		t.Fatalf("taken = %d, want 400", s.Taken())
	}
}

func TestPreMapExhaustion(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 50, false)
	s, _ := NewPreMap(fsys, "/data", 1<<10, 7)
	recs, err := s.Sample(200)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if len(recs) != 50 {
		t.Fatalf("got %d records before exhaustion, want 50", len(recs))
	}
}

func TestPreMapUniformMean(t *testing.T) {
	// The sampled mean over fixed-width records must estimate the true
	// mean well — the uniformity property everything else rests on.
	fsys, xs, _ := fixtureFS(t, 20000, false)
	var truth float64
	for _, x := range xs {
		truth += x
	}
	truth /= float64(len(xs))
	s, _ := NewPreMap(fsys, "/data", 1<<12, 8)
	recs, err := s.Sample(4000)
	if err != nil {
		t.Fatal(err)
	}
	var est float64
	for _, r := range recs {
		v, err := strconv.ParseFloat(r.Line, 64)
		if err != nil {
			t.Fatal(err)
		}
		est += v
	}
	est /= float64(len(recs))
	if rel := math.Abs(est-truth) / truth; rel > 0.03 {
		t.Fatalf("sampled mean %v vs truth %v (rel err %v)", est, truth, rel)
	}
}

func TestPreMapEstimatesTotals(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 1000, false)
	s, _ := NewPreMap(fsys, "/data", 1<<10, 9)
	if _, err := s.Sample(100); err != nil {
		t.Fatal(err)
	}
	total := s.EstimatedTotalRecords()
	if total < 990 || total > 1010 {
		t.Fatalf("estimated total = %d, want ≈1000", total)
	}
	p := float64(s.Taken()) / float64(total)
	if p < 0.09 || p > 0.11 {
		t.Fatalf("estimated fraction = %v, want ≈0.1", p)
	}
}

func TestPreMapReadsFarLessThanFile(t *testing.T) {
	fsys, _, m := fixtureFS(t, 50000, false)
	size, _ := fsys.Stat("/data")
	before := m.Snapshot()
	s, _ := NewPreMap(fsys, "/data", 1<<12, 10)
	if _, err := s.Sample(100); err != nil {
		t.Fatal(err)
	}
	read := m.Snapshot().Sub(before).BytesRead
	if read >= size/2 {
		t.Fatalf("pre-map read %d of %d bytes — not sub-scan", read, size)
	}
}

// TestPreMapDrawsOnUntilExhausted: a stream drawn in two calls keeps
// its without-replacement state across them, and the call that runs
// past the file returns what was left with ErrExhausted.
func TestPreMapDrawsOnUntilExhausted(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 100, false)
	s, _ := NewPreMap(fsys, "/data", 1<<10, 11)
	if _, err := s.Sample(50); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Sample(100)
	if !errors.Is(err, ErrExhausted) || len(recs) != 50 || s.Taken() != 100 {
		t.Fatalf("second draw = %d records (taken %d), %v; want the other 50, ErrExhausted", len(recs), s.Taken(), err)
	}
}

func TestPreMapEmptyFile(t *testing.T) {
	fsys := dfs.New(dfs.Config{BlockSize: 64, Replication: 1, DataNodes: 1})
	fsys.WriteFile("/empty", nil)
	s, err := NewPreMap(fsys, "/empty", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if recs, err := s.Sample(0); err != nil || len(recs) != 0 {
		t.Fatalf("zero draw = %v, %v", recs, err)
	}
}

// indexPool pools n records whose values are their own indices, cut into
// blocks of perBlock records.
func indexPool(t testing.TB, seed uint64, n, perBlock int) *PostMapCols {
	t.Helper()
	s := NewPostMapCols(seed)
	addIndexBlocks(t, s, 0, n, perBlock)
	return s
}

// addIndexBlocks pools records from..n-1 in blocks of perBlock.
func addIndexBlocks(t testing.TB, s *PostMapCols, from, n, perBlock int) {
	t.Helper()
	for lo := from; lo < n; lo += perBlock {
		s.AddBlock(indexBlock(t, lo, min(lo+perBlock, n)))
	}
}

// indexBlock is a block of records lo..hi-1 whose values are their own
// indices.
func indexBlock(t testing.TB, lo, hi int) *colscan.Block {
	t.Helper()
	starts := make([]int64, hi-lo)
	vals := make([]float64, hi-lo)
	for i := range vals {
		starts[i] = int64(2 * (lo + i))
		vals[i] = float64(lo + i)
	}
	blk, err := colscan.NewBlock(colscan.FormatNumeric, starts, int64(2*hi-1), vals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func TestPostMapDrawWithoutReplacement(t *testing.T) {
	s := indexPool(t, 3, 100, 30)
	if s.Weight() != 100 {
		t.Fatalf("total = %d", s.Weight())
	}
	seen := map[float64]bool{}
	for round := 0; round < 4; round++ {
		var cols colscan.Cols
		if n, err := s.DrawCols(25, &cols); err != nil || n != 25 {
			t.Fatalf("drew %d, err %v", n, err)
		}
		for _, v := range cols.Vals {
			if seen[v] {
				t.Fatalf("record %v drawn twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("drew %d distinct, want 100", len(seen))
	}
	if n, err := s.DrawCols(1, &colscan.Cols{}); n != 0 || !errors.Is(err, ErrExhausted) {
		t.Fatalf("draw past the pool = %d, %v; want 0, ErrExhausted", n, err)
	}
}

func TestPostMapUniformity(t *testing.T) {
	// Draw 10% many times; each record's inclusion frequency should be
	// close to 10%.
	const n, k, trials = 200, 20, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		s := indexPool(t, uint64(trial), n, 64)
		var cols colscan.Cols
		if _, err := s.DrawCols(k, &cols); err != nil {
			t.Fatal(err)
		}
		for _, v := range cols.Vals {
			counts[int(v)]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("record %d drawn %d times, want ≈%v", i, c, want)
		}
	}
}

func TestPostMapNegativeDraw(t *testing.T) {
	s := indexPool(t, 1, 1, 1)
	var cols colscan.Cols
	if n, err := s.DrawCols(-5, &cols); err != nil || n != 0 || cols.Len() != 0 {
		t.Fatalf("negative draw = %d (%d records), %v", n, cols.Len(), err)
	}
}

// TestParserMatchesBuiltinDecode pins the custom-parser read sites
// against the built-in decoder on the same bytes: a fixed seed draws the
// same pre-map record sequence through EnableParser as through
// EnableColumnar, and ParseSplit builds the block colscan.Decode does.
func TestParserMatchesBuiltinDecode(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 3000, false)
	p := &Parser{Parse: func(line string) (string, float64, error) {
		v, err := strconv.ParseFloat(line, 64)
		return "", v, err
	}}
	draw := func(enable func(*PreMap) error) []float64 {
		s, err := NewPreMap(fsys, "/data", 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := enable(s); err != nil {
			t.Fatal(err)
		}
		var cols colscan.Cols
		for i := 0; i < 3; i++ {
			if _, err := s.SampleCols(400, &cols); err != nil {
				t.Fatal(err)
			}
		}
		return cols.Vals
	}
	builtin := draw(func(s *PreMap) error { return s.EnableColumnar(nil, colscan.FormatNumeric) })
	custom := draw(func(s *PreMap) error { s.EnableParser(p); return nil })
	if !reflect.DeepEqual(builtin, custom) {
		t.Fatal("pre-map draws through a custom parser diverged from the built-in format")
	}

	size, _ := fsys.Stat("/data")
	splits, err := fsys.Splits("/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range splits {
		want, err := colscan.Decode(fsys, "/data", size, sp.Offset, sp.Length, colscan.FormatNumeric)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ParseSplit(fsys, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %v: ParseSplit block differs from Decode", sp)
		}
	}
}

func TestReservoirExactlyK(t *testing.T) {
	r, err := NewReservoir(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.Add(strconv.Itoa(i))
	}
	if got := r.Sample(); len(got) != 10 {
		t.Fatalf("sample size = %d", len(got))
	}
	if r.seen != 1000 {
		t.Fatalf("seen = %d", r.seen)
	}
	if _, err := NewReservoir(0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r, _ := NewReservoir(10, 4)
	r.Add("only")
	if got := r.Sample(); len(got) != 1 || got[0] != "only" {
		t.Fatalf("sample = %v", got)
	}
}

func TestReservoirUniformity(t *testing.T) {
	const n, k, trials = 50, 5, 4000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r, _ := NewReservoir(k, uint64(trial))
		for i := 0; i < n; i++ {
			r.Add(strconv.Itoa(i))
		}
		for _, rec := range r.Sample() {
			i, _ := strconv.Atoi(rec)
			counts[i]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("record %d kept %d times, want ≈%v", i, c, want)
		}
	}
}

func TestBlockSampleBiasOnClusteredLayout(t *testing.T) {
	// On a clustered (sorted) layout, one block is a terrible estimate of
	// the mean; pre-map stays accurate. This is the paper's §3.3 argument
	// against naive block sampling.
	fsys, xs, _ := fixtureFS(t, 20000, true)
	var truth float64
	for _, x := range xs {
		truth += x
	}
	truth /= float64(len(xs))

	lines, err := BlockSample(fsys, "/data", 1<<12, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var blockMean float64
	for _, l := range lines {
		v, _ := strconv.ParseFloat(l, 64)
		blockMean += v
	}
	blockMean /= float64(len(lines))
	blockErr := math.Abs(blockMean-truth) / truth

	s, _ := NewPreMap(fsys, "/data", 1<<12, 3)
	recs, err := s.Sample(len(lines))
	if err != nil {
		t.Fatal(err)
	}
	var pmMean float64
	for _, r := range recs {
		v, _ := strconv.ParseFloat(r.Line, 64)
		pmMean += v
	}
	pmMean /= float64(len(recs))
	pmErr := math.Abs(pmMean-truth) / truth

	if blockErr < 5*pmErr {
		t.Fatalf("expected block sampling to be far worse on clustered data: block=%v premap=%v", blockErr, pmErr)
	}
}

func TestBlockSampleAllBlocks(t *testing.T) {
	fsys, xs, _ := fixtureFS(t, 100, false)
	lines, err := BlockSample(fsys, "/data", 1<<10, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(xs) {
		t.Fatalf("requesting more blocks than exist should read all: %d vs %d", len(lines), len(xs))
	}
}

func TestPreMapPropertyOffsetsAreRecordStarts(t *testing.T) {
	f := func(seed uint64) bool {
		fsys := dfs.New(dfs.Config{BlockSize: 256, Replication: 1, DataNodes: 2, Seed: seed})
		var buf []byte
		n := 50 + int(seed%100)
		for i := 0; i < n; i++ {
			buf = append(buf, fmt.Sprintf("%d\n", i)...)
		}
		if err := fsys.WriteFile("/p", buf); err != nil {
			return false
		}
		s, err := NewPreMap(fsys, "/p", 128, seed)
		if err != nil {
			return false
		}
		recs, err := s.Sample(20)
		if err != nil {
			return false
		}
		for _, r := range recs {
			// The byte before each sampled offset must be a newline (or
			// the offset is 0) and the line must parse back.
			if r.Offset != 0 {
				b := make([]byte, 1)
				if _, err := fsys.ReadAt("/p", r.Offset-1, b); err != nil || b[0] != '\n' {
					return false
				}
			}
			if _, err := strconv.Atoi(r.Line); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPreMapOwnedDisjointness(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 5000, false)
	splits, err := fsys.Splits("/data", 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 4 {
		t.Fatalf("need several splits, got %d", len(splits))
	}
	mid := len(splits) / 2
	a, err := NewPreMapOwned(fsys, "/data", splits[:mid], 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPreMapOwned(fsys, "/data", splits[mid:], 1) // same seed on purpose
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Sample(400)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Sample(400)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range ra {
		seen[r.Offset] = true
		if r.Offset >= splits[mid].Offset {
			t.Fatalf("sampler A drew offset %d outside its ownership", r.Offset)
		}
	}
	for _, r := range rb {
		if seen[r.Offset] {
			t.Fatalf("offset %d sampled by both owners", r.Offset)
		}
		if r.Offset < splits[mid].Offset {
			t.Fatalf("sampler B drew offset %d outside its ownership", r.Offset)
		}
	}
}

func TestPreMapOwnedValidation(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 10, false)
	if _, err := NewPreMapOwned(fsys, "/data", nil, 1); err == nil {
		t.Fatal("no splits should error")
	}
}

func TestPreMapOwnedRecordEstimates(t *testing.T) {
	fsys, _, _ := fixtureFS(t, 1000, false)
	splits, _ := fsys.Splits("/data", 1<<11)
	half := splits[:len(splits)/2]
	s, err := NewPreMapOwned(fsys, "/data", half, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(100); err != nil {
		t.Fatal(err)
	}
	var ownedBytes int64
	for _, sp := range half {
		ownedBytes += sp.Length
	}
	if s.OwnedBytes() != ownedBytes {
		t.Fatalf("OwnedBytes = %d, want %d", s.OwnedBytes(), ownedBytes)
	}
	// The owned splits' record count, from the mean sampled line length.
	ownedRecs := int64(float64(ownedBytes)*float64(s.Taken())/float64(s.bytes) + 0.5)
	wantRecs := ownedBytes / 10 // fixed-width 10-byte records
	if ownedRecs < wantRecs-10 || ownedRecs > wantRecs+10 {
		t.Fatalf("owned records = %d, want ≈%d", ownedRecs, wantRecs)
	}
}
