package plan

import (
	"strconv"
	"testing"

	"repro/internal/colscan"
)

// benchBlock builds an n-record block shaped like the end-to-end
// benchmark's query_scan input: pseudo-random values in [0, 100), keys
// g0..g15 dictionary-coded when kv is set.
func benchBlock(tb testing.TB, n int, kv bool) *colscan.Block {
	tb.Helper()
	vals := make([]float64, n)
	var keys []string
	x := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = float64(x%100000) / 1000
		if kv {
			keys = append(keys, "g"+strconv.Itoa(i%16))
		}
	}
	return testBlock(tb, vals, keys)
}

// benchFilters runs fn per filter case — a numeric-only conjunction,
// and query_scan's filter, whose string predicate runs on the
// dictionary-coded key column — with the compiled program and a
// 43 k-record block (1 MiB of query_scan's text), reporting ns/record.
func benchFilters(b *testing.B, fn func(b *testing.B, p *Program, blk *colscan.Block)) {
	for _, c := range []struct {
		name, filter string
		kv           bool
	}{
		{"numeric", "v > 20 && v < 90", false},
		{"kv-dict", `v > 20 && key != "g7"`, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec, err := Spec{Path: "/d", Filter: c.filter}.Normalize()
			if err != nil {
				b.Fatal(err)
			}
			p, err := spec.Compile()
			if err != nil {
				b.Fatal(err)
			}
			blk := benchBlock(b, 43_000, c.kv)
			b.ReportAllocs()
			b.ResetTimer()
			fn(b, p, blk)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blk.NumRecords()), "ns/record")
		})
	}
}

// BenchmarkKeepBlock prices the vectorized σ kernel over one block; it
// is meant to run at 3× or more BenchmarkEvalRecordLoop's ns/record.
func BenchmarkKeepBlock(b *testing.B) {
	benchFilters(b, func(b *testing.B, p *Program, blk *colscan.Block) {
		sc := NewScratch()
		var keep []int32
		for i := 0; i < b.N; i++ {
			keep = p.KeepBlock(sc, blk, keep[:0])
		}
	})
}

// BenchmarkEvalRecordLoop is the per-record reference walk over the same
// blocks: what KeepBlock is held against.
func BenchmarkEvalRecordLoop(b *testing.B) {
	benchFilters(b, func(b *testing.B, p *Program, blk *colscan.Block) {
		var keep []int32
		for i := 0; i < b.N; i++ {
			keep = keep[:0]
			for r := 0; r < blk.NumRecords(); r++ {
				ok, _, _, err := p.EvalRecord(blk.Key(r), blk.Value(r))
				if err != nil {
					b.Fatal(err)
				}
				if ok {
					keep = append(keep, int32(r))
				}
			}
		}
	})
}

func BenchmarkApply(b *testing.B) {
	spec, err := Spec{Path: "/d", Filter: `v > 20 && key != "g7"`, Derive: "v * 2 + 1", GroupBy: "key"}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	p, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var in, out colscan.Cols
	benchBlock(b, 43_000, true).AppendAll(&in)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if _, err := p.Apply(sc, &in, &out, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.Len()), "ns/record")
}
