package plan

import (
	"errors"
	"math"
	"testing"

	"repro/internal/colscan"
)

// testBlock builds a block over the given records: dictionary-coded
// (first-occurrence order, like the decoders) when keys is non-nil,
// numeric otherwise.
func testBlock(tb testing.TB, vals []float64, keys []string) *colscan.Block {
	tb.Helper()
	starts := make([]int64, len(vals))
	for i := range starts {
		starts[i] = int64(i) * 2
	}
	format := colscan.FormatNumeric
	var ids []uint32
	var dict []string
	if keys != nil {
		format = colscan.FormatKV
		intern := map[string]uint32{}
		for _, k := range keys {
			id, ok := intern[k]
			if !ok {
				id = uint32(len(dict))
				dict = append(dict, k)
				intern[k] = id
			}
			ids = append(ids, id)
		}
	}
	blk, err := colscan.NewBlock(format, starts, int64(len(vals))*2, vals, ids, dict)
	if err != nil {
		tb.Fatal(err)
	}
	return blk
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstReference holds the vectorized evaluator to the
// per-record reference walk through both entry points: KeepBlock's
// indices over a dictionary-coded block (and a numeric one when the
// filter does not read the key) must be exactly the records EvalRecord
// keeps, and Apply's output — raw, and prefiltered over KeepBlock's
// survivors — must match EvalRecord's bit for bit, failing with
// ErrBadRecord exactly when the reference does.
func checkAgainstReference(tb testing.TB, p *Program, vals []float64, keys []string) {
	tb.Helper()
	var wantIdx []int32
	var want, survivors colscan.Cols
	var wantErr error
	for i, v := range vals {
		if p.filter != nil && p.filter.evalOne(keys[i], v) == 0 {
			continue
		}
		wantIdx = append(wantIdx, int32(i))
		survivors.Vals = append(survivors.Vals, v)
		survivors.Keys = append(survivors.Keys, keys[i])
		_, k, x, err := p.EvalRecord(keys[i], v)
		if err != nil && wantErr == nil {
			wantErr = err
		}
		want.Vals = append(want.Vals, x)
		if p.Keyed() {
			want.Keys = append(want.Keys, k)
		}
	}

	sc := NewScratch()
	blocks := []*colscan.Block{testBlock(tb, vals, keys)}
	if p.filter == nil || !p.filter.usesKey {
		blocks = append(blocks, testBlock(tb, vals, nil))
	}
	for _, blk := range blocks {
		got := p.KeepBlock(sc, blk, nil)
		if len(got) != len(wantIdx) {
			tb.Fatalf("KeepBlock kept %d of %d records, reference keeps %d", len(got), len(vals), len(wantIdx))
		}
		for i := range got {
			if got[i] != wantIdx[i] {
				tb.Fatalf("KeepBlock[%d] = record %d, reference keeps record %d", i, got[i], wantIdx[i])
			}
		}
	}

	for _, c := range []struct {
		name        string
		in          *colscan.Cols
		prefiltered bool
	}{
		{"raw", &colscan.Cols{Vals: vals, Keys: keys}, false},
		{"prefiltered", &survivors, true},
	} {
		var out colscan.Cols
		kept, err := p.Apply(sc, c.in, &out, c.prefiltered)
		if wantErr != nil {
			if !errors.Is(err, colscan.ErrBadRecord) {
				tb.Fatalf("Apply(%s) err = %v, reference fails with %v", c.name, err, wantErr)
			}
			continue
		}
		if err != nil {
			tb.Fatalf("Apply(%s): %v", c.name, err)
		}
		if kept != len(want.Vals) || len(out.Vals) != len(want.Vals) || len(out.Keys) != len(want.Keys) {
			tb.Fatalf("Apply(%s) kept %d (%d vals, %d keys), reference keeps %d (%d keys)",
				c.name, kept, len(out.Vals), len(out.Keys), len(want.Vals), len(want.Keys))
		}
		for i := range want.Vals {
			if !sameBits(out.Vals[i], want.Vals[i]) {
				tb.Fatalf("Apply(%s) value %d = %x, reference %x (record %d)",
					c.name, i, math.Float64bits(out.Vals[i]), math.Float64bits(want.Vals[i]), wantIdx[i])
			}
		}
		for i := range want.Keys {
			if out.Keys[i] != want.Keys[i] {
				tb.Fatalf("Apply(%s) key %d = %q, reference %q", c.name, i, out.Keys[i], want.Keys[i])
			}
		}
	}
}

// cycle repeats the probe records out to n.
func cycle(n int, probeVals []float64, probeKeys []string) ([]float64, []string) {
	vals, keys := make([]float64, n), make([]string, n)
	for i := range vals {
		vals[i] = probeVals[i%len(probeVals)]
		keys[i] = probeKeys[i%len(probeKeys)]
	}
	return vals, keys
}

func TestVMMatchesReference(t *testing.T) {
	filters := []string{
		"v > 20",
		"20 < v",
		"v > 20 && v < 90",
		`v > 20 && key != "g7"`,
		`key == "g7"`,
		`"g7" != key || v <= 3`,
		"v / 0 > 1",
		"sqrt(v - 50) >= 0",
		"!(v / v > 0)",
		`v > 1 && (!(key == "g1") || v * v > 50 && key != "g2")`,
		`!(v > 10 || key == "g3") && !(v < -5)`,
		"key == key",
		"key != key",
		`"a" == "a" && v > 2`,
		`"a" == "b" || v > 2`,
		"1 < 2",
		"v * 2 + 1 >= max(v, 10) - floor(v / 3)",
		"abs(-v) == v",
		"min(2, v) != 2 - v",
		"3 - v < 1 / v",
		"exp(log(v)) > 2 * v - v",
	}
	derives := []string{"v * 2 + 1", "3", "v", "-v", "1 / (v - 2.5)", "max(1, v) - min(v, 1) / ceil(2.5)"}
	probeVals := []float64{0, -1, 1, 2.5, 25, 75, 99.5, math.MaxFloat64, -7, 50, 60}
	probeKeys := []string{"g7", "g1", "", "g2", "g3", "g7x", "a"}

	var progs []*Program
	for _, src := range filters {
		c, err := compileExpr(src, kBool, "filter")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		progs = append(progs, &Program{filter: c}, &Program{filter: c, groupKey: true})
	}
	for _, src := range derives {
		c, err := compileExpr(src, kNum, "derive")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		f, err := compileExpr("v != 2.5 && v < 1e300", kBool, "filter")
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, &Program{derive: c, group: c}, &Program{filter: f, derive: c}, &Program{filter: f, group: c})
	}
	for _, n := range []int{0, 1, tile - 1, tile, tile + 1, 3*tile + 7} {
		vals, keys := cycle(n, probeVals, probeKeys)
		for _, p := range progs {
			checkAgainstReference(t, p, vals, keys)
		}
	}
}

// TestVMDictionaries runs string predicates over blocks whose
// dictionary lacks the literal, holds only the literal, or is empty.
func TestVMDictionaries(t *testing.T) {
	for _, src := range []string{`key == "lit"`, `key != "lit"`, `v > 1 && key == "lit"`, `!(key == "lit") || key == "x"`} {
		c, err := compileExpr(src, kBool, "filter")
		if err != nil {
			t.Fatal(err)
		}
		p := &Program{filter: c}
		for _, probeKeys := range [][]string{{"a", "b", "x"}, {"lit"}, {"lit", "a"}} {
			for _, n := range []int{0, 5, tile + 3} {
				vals, keys := cycle(n, []float64{0, 1, 2, 3}, probeKeys)
				checkAgainstReference(t, p, vals, keys)
			}
		}
	}
}

// TestKeepBlockWithoutFilter pins the exported contract for derive-only
// and group-only programs: no σ keeps every record.
func TestKeepBlockWithoutFilter(t *testing.T) {
	p, err := mustNormalize(t, Spec{Path: "/d", Derive: "v * 2"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	blk := testBlock(t, []float64{4, 5, 6}, nil)
	got := p.KeepBlock(NewScratch(), blk, []int32{9})
	want := []int32{9, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("KeepBlock = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KeepBlock = %v, want %v", got, want)
		}
	}
}

// scratchBytes is the memory a Scratch retains between calls.
func scratchBytes(sc *Scratch) int {
	n := cap(sc.mask)
	for _, r := range sc.regs {
		n += 8 * cap(r)
	}
	for _, s := range sc.sels {
		n += 4 * cap(s)
	}
	for _, t := range sc.truth {
		n += cap(t)
	}
	return n
}

// TestScratchStaysTileSized filters a 1 M-record block and a batch of
// the same length: the Scratch keeps O(tile) bytes, not O(records).
func TestScratchStaysTileSized(t *testing.T) {
	p, err := mustNormalize(t, Spec{Path: "/d", GroupBy: "key", Derive: "v * 2 + 1",
		Filter: `v * 2 > 40 && key != "g7" || !(v < 5)`}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	blk := benchBlock(t, 1_000_000, true)
	sc := NewScratch()
	if kept := p.KeepBlock(sc, blk, nil); len(kept) == 0 || len(kept) == blk.NumRecords() {
		t.Fatalf("filter kept %d of %d records: not a test of σ", len(kept), blk.NumRecords())
	}
	var in, out colscan.Cols
	blk.AppendAll(&in)
	if _, err := p.Apply(sc, &in, &out, false); err != nil {
		t.Fatal(err)
	}
	if got, limit := scratchBytes(sc), 8*8*tile; got > limit {
		t.Fatalf("Scratch retains %d bytes after a %d-record block, want at most %d", got, blk.NumRecords(), limit)
	}
}

// TestWarmKernelsDoNotAllocate: on a warmed Scratch, with destinations
// that have room, neither entry point allocates.
func TestWarmKernelsDoNotAllocate(t *testing.T) {
	p, err := mustNormalize(t, Spec{Path: "/d", GroupBy: "key", Derive: "v * 2 + 1",
		Filter: `v > 20 && key != "g7" || !(v < 5)`}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	blk := benchBlock(t, 3*tile+7, true)
	sc := NewScratch()
	var in, out colscan.Cols
	blk.AppendAll(&in)
	var keep []int32
	run := func() {
		keep = p.KeepBlock(sc, blk, keep[:0])
		out.Reset()
		if _, err := p.Apply(sc, &in, &out, false); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("KeepBlock + Apply on a warmed Scratch allocate %v times per run, want 0", allocs)
	}
}
