package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"
)

// fuzzRef is the obviously-correct reference the fuzzer checks
// OrderStat against: a sorted slice with linear-time mutation.
type fuzzRef struct{ vs []float64 }

func (r *fuzzRef) add(v float64) {
	i := sort.SearchFloat64s(r.vs, v)
	r.vs = append(r.vs, 0)
	copy(r.vs[i+1:], r.vs[i:])
	r.vs[i] = v
}

func (r *fuzzRef) remove(i int) {
	r.vs = append(r.vs[:i], r.vs[i+1:]...)
}

// kth is o's k-th (0-based) order statistic, k in [0, o.n): the Fenwick
// descent Quantile reads its order statistics through.
func kth(o *OrderStat, k int64) float64 { return o.vals[o.tree.Pick(k)] }

// FuzzOrderStat drives an op sequence decoded from the fuzz input
// against both OrderStat (Fenwick-indexed dictionary) and the sorted
// slice reference, and requires every order statistic and quantile to
// agree. The counted add shares the alphabet with one-value and longer
// AddBatch calls and Remove, so tombstones, revived slots and compaction
// are crossed with it.
func FuzzOrderStat(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte("\x00AAAAAAAA\x00BBBBBBBB\x01CCCCCCCC\x02DDDDDDDD"))
	f.Add([]byte("\x04\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\xf0\x3f"))
	// Counted adds around a removal: new values, a tombstone, a revival.
	f.Add([]byte("\x35AAAAAAAABBBBBBBBCCCCCCCC\x02\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x25BBBBBBBBAAAAAAAA\x04\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms OrderStat
		var ref fuzzRef
		for len(data) >= 9 {
			op, bits := data[0], binary.LittleEndian.Uint64(data[1:9])
			data = data[9:]
			v := math.Float64frombits(bits)
			switch op % 6 {
			case 0, 1: // weight one-value adds double
				if math.IsNaN(v) {
					if err := ms.AddBatch([]float64{v}); !errors.Is(err, ErrNaN) {
						t.Fatalf("AddBatch of a lone NaN: err = %v, want ErrNaN", err)
					}
					continue
				}
				if err := ms.AddBatch([]float64{v}); err != nil {
					t.Fatalf("AddBatch of a lone %v: %v", v, err)
				}
				ref.add(v)
			case 2: // remove an element currently in the multiset
				if len(ref.vs) == 0 {
					continue
				}
				i := int(bits % uint64(len(ref.vs)))
				if err := ms.Remove(ref.vs[i]); err != nil {
					t.Fatalf("Remove(%v): %v", ref.vs[i], err)
				}
				ref.remove(i)
			case 3: // batch add: up to 4 more values from the stream
				batch := []float64{v}
				for len(batch) < 4 && len(data) >= 8 {
					batch = append(batch, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
					data = data[8:]
				}
				hasNaN := false
				for _, b := range batch {
					if math.IsNaN(b) {
						hasNaN = true
					}
				}
				if hasNaN {
					if err := ms.AddBatch(batch); !errors.Is(err, ErrNaN) {
						t.Fatalf("AddBatch(NaN) err = %v, want ErrNaN", err)
					}
					continue
				}
				if err := ms.AddBatch(batch); err != nil {
					t.Fatalf("AddBatch: %v", err)
				}
				for _, b := range batch {
					ref.add(b)
				}
			case 5: // counted add: up to 4 more values, sorted and deduplicated, with counts 0…3
				vals := []float64{v}
				for len(vals) < 5 && len(data) >= 8 {
					vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
					data = data[8:]
				}
				sort.Float64s(vals) // NaNs first
				var distinct []float64
				var counts []uint32
				for i, b := range vals {
					if math.IsNaN(b) || (len(distinct) > 0 && b == distinct[len(distinct)-1]) {
						continue
					}
					c := uint32(op>>4+byte(i)) % 4
					distinct = append(distinct, b)
					counts = append(counts, c)
					for ; c > 0; c-- {
						ref.add(b)
					}
				}
				keep := append([]uint32(nil), counts...)
				ms.AddCounted(distinct, counts)
				for i := range counts {
					if counts[i] != keep[i] {
						t.Fatalf("AddCounted modified counts: %v, were %v", counts, keep)
					}
				}
			case 4: // point query while mutating
				if len(ref.vs) == 0 {
					continue
				}
				k := int64(bits % uint64(len(ref.vs)))
				if got := kth(&ms, k); got != ref.vs[k] {
					t.Fatalf("kth(%d) = %v, reference %v", k, got, ref.vs[k])
				}
			}
			if ms.n != int64(len(ref.vs)) {
				t.Fatalf("n = %d, reference %d", ms.n, len(ref.vs))
			}
		}
		// Full final cross-check: every order statistic and a quantile
		// sweep must agree with the sorted reference.
		for k := range ref.vs {
			if got := kth(&ms, int64(k)); got != ref.vs[k] {
				t.Fatalf("final kth(%d) = %v, reference %v", k, got, ref.vs[k])
			}
		}
		if len(ref.vs) > 0 {
			for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 1} {
				want, err1 := QuantileSorted(ref.vs, q)
				got, err2 := ms.Quantile(q)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("Quantile(%v) errs: %v vs %v", q, err1, err2)
				}
				// IEEE equality, not bit equality: equal-comparing -0 and
				// +0 may be stored in either order by either structure.
				if err1 == nil && got != want {
					t.Fatalf("Quantile(%v) = %v, QuantileSorted = %v", q, got, want)
				}
			}
		}
	})
}
