package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// countedRecord encodes one fuzz-input slot: a value's bits and its
// count.
func countedRecord(v float64, count uint8) []byte {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
	return append(b, count)
}

func countedRecords(slots ...[]byte) []byte {
	var out []byte
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}

// FuzzQuantileCounted checks the counted quantile against QuantileSorted
// over the multiset written out: same bits, same error. The input is
// 9-byte records — a value and a count (mod 16) — whose values are
// sorted and merged into strictly ascending distinct slots, as a
// ranking holds them; zero counts are kept as slots, so the scan must
// step over them at either end and between.
func FuzzQuantileCounted(f *testing.F) {
	negZero := math.Copysign(0, -1)
	seeds := [][]byte{
		countedRecord(7, 1), // one value
		countedRecords(countedRecord(-3, 0), countedRecord(1, 9), countedRecord(2, 0)), // all mass on one slot
		countedRecords(countedRecord(-5, 0), countedRecord(-1, 2), countedRecord(0.5, 3),
			countedRecord(4, 1), countedRecord(9, 0)), // zero counts at both ends
		countedRecords(countedRecord(-8, 2), countedRecord(-4.5, 1), countedRecord(-1e-3, 5)), // negatives
		countedRecords(countedRecord(math.Inf(-1), 1), countedRecord(2, 2), countedRecord(math.Inf(1), 1)),
		countedRecords(countedRecord(math.SmallestNonzeroFloat64, 2), countedRecord(2.2e-308, 1),
			countedRecord(-math.SmallestNonzeroFloat64, 3)), // subnormals
		countedRecords(countedRecord(negZero, 3), countedRecord(1, 1)), // a lone −0
		countedRecords(countedRecord(1, 0), countedRecord(2, 0)),       // no mass at all
	}
	var blocks []byte // many slots, zero counts among them
	for i := range 37 {
		blocks = append(blocks, countedRecord(float64(i)-11.5, uint8(i*7%5))...)
	}
	seeds = append(seeds, blocks)
	for _, seed := range seeds {
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			f.Add(q, seed)
		}
	}
	f.Fuzz(func(t *testing.T, q float64, data []byte) {
		type slot struct {
			v float64
			c uint32
		}
		var slots []slot
		for ; len(data) >= 9; data = data[9:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			if math.IsNaN(v) {
				continue // a ranking holds no NaN
			}
			slots = append(slots, slot{v, uint32(data[8] % 16)})
		}
		sort.SliceStable(slots, func(i, j int) bool { return slots[i].v < slots[j].v })
		var distinct []float64
		var counts []uint32
		for _, s := range slots {
			// Equal values — +0 and −0 among them — share the first one's slot.
			if len(distinct) > 0 && distinct[len(distinct)-1] == s.v {
				counts[len(counts)-1] += s.c
				continue
			}
			distinct = append(distinct, s.v)
			counts = append(counts, s.c)
		}
		var multiset []float64
		for i, c := range counts {
			for range c {
				multiset = append(multiset, distinct[i])
			}
		}
		want, errWant := QuantileSorted(multiset, q)
		got, errGot := QuantileCounted(distinct, counts, int64(len(multiset)), q)
		if (errWant == nil) != (errGot == nil) || errWant != nil && errWant.Error() != errGot.Error() {
			t.Fatalf("q=%v n=%d: QuantileSorted err %v, QuantileCounted err %v", q, len(multiset), errWant, errGot)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q=%v distinct=%v counts=%v: QuantileCounted = %v, QuantileSorted = %v", q, distinct, counts, got, want)
		}
	})
}
