package colscan

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// findRecordBlock builds a numeric block whose record i starts gaps[i]
// bytes before record i+1 (a gap is a record's content plus its
// newline), the first at base; the last record's content runs to
// lastEnd. NewBlock refuses a block spanning more than 4 GiB.
func findRecordBlock(gaps []int64, base int64) (*Block, error) {
	starts := make([]int64, len(gaps))
	lastEnd, at := int64(0), base
	for i, g := range gaps {
		starts[i] = at
		lastEnd = at + g - 1
		at += g
	}
	return NewBlock(FormatNumeric, starts, lastEnd, make([]float64, len(gaps)), nil, nil)
}

// FuzzFindRecord holds FindRecord to the plainest statement of its
// contract — sort.Search for the first record starting past pos, minus
// one — on blocks of one record width (count records of fixed bytes) and
// of many (one record per byte of widths, that many content bytes), with
// one record stretched to long bytes at index at (past 64 KiB, up to the
// 4 GiB span limit), starting at base. Besides pos it probes around
// every record start, before base, at and past lastEnd, and at and
// beyond base + maxSpan.
func FuzzFindRecord(f *testing.F) {
	f.Add([]byte(nil), uint16(12), uint16(1000), int64(0), uint32(0), uint16(0), int64(5555))             // fixed width
	f.Add([]byte{3, 0, 7, 1, 200, 5, 9}, uint16(0), uint16(0), int64(0), uint32(0), uint16(0), int64(40)) // variable width
	f.Add([]byte{5, 5, 5, 5, 5}, uint16(0), uint16(0), int64(0), uint32(70_000), uint16(2), int64(100))   // a > 64 KiB record between short ones
	f.Add([]byte{1, 2, 3}, uint16(0), uint16(0), int64(1<<33), uint32(0), uint16(0), int64(1<<33+3))      // base > 0
	f.Add([]byte{9}, uint16(0), uint16(0), int64(4), uint32(0), uint16(0), int64(8))                      // a single record
	f.Add([]byte(nil), uint16(0), uint16(0), int64(0), uint32(0), uint16(0), int64(0))                    // an empty block
	f.Add([]byte{1, 1}, uint16(0), uint16(0), int64(3), uint32(math.MaxUint32-5), uint16(0), int64(math.MaxUint32))
	f.Fuzz(func(t *testing.T, widths []byte, fixed, count uint16, base int64, long uint32, at uint16, pos int64) {
		var gaps []int64
		if fixed > 0 {
			gaps = make([]int64, count)
			for i := range gaps {
				gaps[i] = int64(fixed)
			}
		} else {
			gaps = make([]int64, len(widths))
			for i, w := range widths {
				gaps[i] = int64(w) + 1
			}
		}
		if long > 0 && int(at) < len(gaps) {
			gaps[at] = int64(long)
		}
		if base < 0 {
			base = -(base + 1)
		}
		base %= 1 << 40
		blk, err := findRecordBlock(gaps, base)
		if err != nil {
			return // spans more than 4 GiB
		}
		n := blk.NumRecords()
		want := func(pos int64) int {
			return sort.Search(n, func(i int) bool { return blk.Start(i) > pos }) - 1
		}
		probes := []int64{pos, math.MinInt64, -1, 0, base - 1, base, base + 1,
			blk.lastEnd - 1, blk.lastEnd, blk.lastEnd + 1, blk.lastEnd + 1<<20,
			base + maxSpan - 1, base + maxSpan, base + maxSpan + 1, math.MaxInt64}
		for i := range n {
			probes = append(probes, blk.Start(i)-1, blk.Start(i), blk.Start(i)+1)
		}
		for _, p := range probes {
			if got, w := blk.FindRecord(p), want(p); got != w {
				t.Fatalf("%d records from %d to %d: FindRecord(%d) = %d, want %d", n, base, blk.lastEnd, p, got, w)
			}
		}
	})
}

// BenchmarkFindRecord resolves random positions in a resident block of
// 1 M records, as a pre-map draw does: of one width (fixed), and of
// widths 4–20 bytes (variable).
func BenchmarkFindRecord(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewPCG(1, 2))
	for _, shape := range []string{"fixed", "variable"} {
		gaps := make([]int64, n)
		for i := range gaps {
			gaps[i] = 12
			if shape == "variable" {
				gaps[i] = 4 + rng.Int64N(17)
			}
		}
		blk, err := findRecordBlock(gaps, 1<<26)
		if err != nil {
			b.Fatal(err)
		}
		pos := make([]int64, 4096)
		for i := range pos {
			pos[i] = blk.base + rng.Int64N(blk.lastEnd-blk.base+1)
		}
		b.Run(shape, func(b *testing.B) {
			sum := 0
			for i := range b.N {
				sum += blk.FindRecord(pos[i%len(pos)])
			}
			if sum < 0 {
				b.Fatal("a position inside the block found no record")
			}
		})
	}
}
