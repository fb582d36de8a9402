package stats

import (
	"errors"
	"fmt"
	"sort"
)

// OrderStat is a counted multiset of float64 values indexed for order
// statistics: a sorted dictionary of distinct values with a Fenwick tree
// over their multiplicities. Adding or removing a value already in the
// dictionary and Quantile are O(log k) in the number of distinct
// values and allocation-free; values are added in batches (AddBatch, or
// AddCounted for a batch already sorted and counted), new distinct
// values with one O(k + m log m) merge + rebuild per batch rather than
// one O(k) insertion per value.
//
// This is the state representation behind EARL's quantile/median
// resample maintenance (§4.1): a maintained resample performs ~√n
// removals and ~|Δs| additions per growth iteration, and the previous
// map[float64]int64 + re-sort-on-mutation representation made every
// Finalize an O(k log k) sort and every order statistic an O(k) scan.
//
// Slots whose count drops to zero are kept as tombstones (they carry no
// weight, so order statistics ignore them) and compacted away on the
// next rebuild once they outnumber live slots.
//
// The zero value is an empty multiset. NaN values are rejected by
// AddBatch before any mutation: a NaN admitted into the sorted
// dictionary would break the binary searches for *finite* values too
// (NaN compares false both ways), silently corrupting quantiles — and
// NaN records are remotely reachable (strconv.ParseFloat accepts
// "NaN"), so this is the guard, not the parsers.
type OrderStat struct {
	vals   []float64 // sorted distinct values; may retain zero-count slots
	counts []int64   // multiplicity per slot (kept for rebuilds/merges)
	tree   Fenwick   // Fenwick over counts
	n      int64     // total count
	zeros  int       // slots whose count has dropped to zero

	// AddBatch's reused buffers: the sorted copy of an unsorted batch,
	// then the batch's distinct values, and their multiplicities.
	scratch []float64
	runs    []uint32
}

// find returns the slot of v and whether it is present in the dictionary.
func (o *OrderStat) find(v float64) (int, bool) {
	i := sort.SearchFloat64s(o.vals, v)
	return i, i < len(o.vals) && o.vals[i] == v
}

// bump adds d (> 0) copies to an existing slot.
func (o *OrderStat) bump(slot int, d int64) {
	if o.counts[slot] == 0 {
		o.zeros--
	}
	o.counts[slot] += d
	o.tree.Add(slot, d)
	o.n += d
}

// ErrNaN is returned when a NaN value is offered to the multiset.
var ErrNaN = errors.New("stats: NaN value in order-statistic multiset")

// AddBatch inserts every value of vs (with multiplicity). vs is not
// retained or modified: it is sorted in an internal scratch buffer
// unless it is already ascending — the engine's canonical generation
// order — and handed to AddCounted as runs of equal values. A batch
// containing NaN is rejected whole, before any mutation.
//
//earl:hotpath
func (o *OrderStat) AddBatch(vs []float64) error {
	if len(vs) == 0 {
		return nil
	}
	for _, v := range vs {
		if v != v {
			return ErrNaN
		}
	}
	// Either buffer may have to hold one entry per value.
	if cap(o.scratch) < len(vs) {
		o.scratch = make([]float64, len(vs))
		o.runs = make([]uint32, len(vs))
	}
	if !sort.Float64sAreSorted(vs) {
		o.scratch = o.scratch[:len(vs)]
		copy(o.scratch, vs)
		sort.Float64s(o.scratch)
		vs = o.scratch
	}
	// Run-length encode, in place when vs is the scratch copy. A run is
	// named by its last value: +0 and −0 compare equal, and that is the
	// one the back-to-front merge has always stored.
	distinct, runs := o.scratch[:0], o.runs[:0]
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		distinct = append(distinct, vs[j-1])
		runs = append(runs, uint32(j-i))
		i = j
	}
	o.AddCounted(distinct, runs)
	return nil
}

// AddCounted inserts distinct[i] counts[i] times, for every i: a batch
// whose sorting and counting the caller has already done — AddBatch, or
// the engine, which ranks a sample once for all the resamples drawn from
// it. distinct must be strictly ascending and free of NaN (not checked:
// a ranking is validated once, not once per resample); zero counts are
// skipped. Neither slice is retained or modified. O(m log(k/m)) for m
// runs against k slots when every value is already in the dictionary,
// O(k + m) plus the Fenwick rebuild otherwise.
//
//earl:hotpath
func (o *OrderStat) AddCounted(distinct []float64, counts []uint32) {
	// First pass: count the runs needing a slot the merged dictionary
	// must keep — brand-new values and revived tombstones (which the
	// merge then cannot compact).
	runs, kept, slot := 0, 0, 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		runs++
		slot = o.seek(slot, distinct[i])
		if slot == len(o.vals) || o.vals[slot] != distinct[i] || o.counts[slot] == 0 {
			kept++
		}
	}
	if runs == 0 {
		return
	}
	if kept > 0 || o.zeros*2 > len(o.vals) {
		o.mergeRebuild(distinct, counts, kept)
		return
	}
	// Pure count bumps: no rebuild.
	slot = 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		slot = o.seek(slot, distinct[i])
		o.bump(slot, int64(c))
	}
}

// seek returns the first slot at or after from whose value is ≥ v
// (len(o.vals) if none), galloping: a step costs O(log gap), so a walk
// over ascending values is linear when they are dense in the dictionary
// and logarithmic per value when they are sparse.
func (o *OrderStat) seek(from int, v float64) int {
	vals := o.vals
	if from >= len(vals) || !(vals[from] < v) {
		return from
	}
	lo, step := from, 1 // vals[lo] < v throughout
	for lo+step < len(vals) && vals[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(vals)) // vals[hi] ≥ v, or hi is the end
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); vals[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// compact drops zero-count tombstone slots in one forward pass.
func (o *OrderStat) compact() {
	if o.zeros == 0 {
		return
	}
	w := 0
	for i := range o.vals {
		if o.counts[i] == 0 {
			continue
		}
		o.vals[w] = o.vals[i]
		o.counts[w] = o.counts[i]
		w++
	}
	o.vals = o.vals[:w]
	o.counts = o.counts[:w]
	o.zeros = 0
}

// mergeRebuild compacts tombstones, merges the counted batch — strictly
// ascending distinct values, zero counts skipped — into the dictionary
// in one backward in-place pass, and rebuilds the Fenwick index. kept is
// the number of batch values absent from the compacted dictionary (new
// values + revived tombstones). O(k + m) plus the rebuild.
func (o *OrderStat) mergeRebuild(distinct []float64, counts []uint32, kept int) {
	o.compact()
	oldLen := len(o.vals)
	newLen := oldLen + kept
	if cap(o.vals) < newLen {
		nv := make([]float64, oldLen, newLen+newLen/2)
		copy(nv, o.vals)
		o.vals = nv
		nc := make([]int64, oldLen, cap(nv))
		copy(nc, o.counts)
		o.counts = nc
	}
	o.vals = o.vals[:newLen]
	o.counts = o.counts[:newLen]
	// Merge from the back: with tombstones gone every old slot survives,
	// so the write cursor never catches the unread region (w ≥ i).
	w := newLen - 1
	i, j := oldLen-1, len(distinct)-1
	for j >= 0 || i >= 0 {
		if j >= 0 && counts[j] == 0 {
			j--
			continue
		}
		if j < 0 || (i >= 0 && o.vals[i] > distinct[j]) {
			o.vals[w] = o.vals[i]
			o.counts[w] = o.counts[i]
			i--
			w--
			continue
		}
		v, c := distinct[j], int64(counts[j])
		j--
		o.n += c
		if i >= 0 && o.vals[i] == v {
			c += o.counts[i]
			i--
		}
		o.vals[w] = v
		o.counts[w] = c
		w--
	}
	o.tree.Rebuild(o.counts)
}

// Remove deletes one previously added copy of v.
//
//earl:hotpath
func (o *OrderStat) Remove(v float64) error {
	slot, ok := o.find(v)
	if !ok || o.counts[slot] <= 0 {
		return fmt.Errorf("stats: remove of absent value %v", v)
	}
	o.counts[slot]--
	o.tree.Add(slot, -1)
	o.n--
	if o.counts[slot] == 0 {
		o.zeros++
	}
	return nil
}

// RemoveBatch deletes one previously added copy of every value in vs —
// O(m log k), allocation-free.
//
//earl:hotpath
func (o *OrderStat) RemoveBatch(vs []float64) error {
	for _, v := range vs {
		if err := o.Remove(v); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds another multiset in (the reduce-side state merge): one
// O(k₁ + k₂) two-way merge of the dictionaries plus a Fenwick rebuild.
// other is not modified.
func (o *OrderStat) Merge(other *OrderStat) {
	if other.n == 0 {
		return
	}
	mv := make([]float64, 0, len(o.vals)+len(other.vals))
	mc := make([]int64, 0, len(o.vals)+len(other.vals))
	i, j := 0, 0
	for i < len(o.vals) || j < len(other.vals) {
		// Skip tombstones on both sides (compaction rides along).
		if i < len(o.vals) && o.counts[i] == 0 {
			i++
			continue
		}
		if j < len(other.vals) && other.counts[j] == 0 {
			j++
			continue
		}
		switch {
		case j >= len(other.vals) || (i < len(o.vals) && o.vals[i] < other.vals[j]):
			mv = append(mv, o.vals[i])
			mc = append(mc, o.counts[i])
			i++
		case i >= len(o.vals) || other.vals[j] < o.vals[i]:
			mv = append(mv, other.vals[j])
			mc = append(mc, other.counts[j])
			j++
		default:
			mv = append(mv, o.vals[i])
			mc = append(mc, o.counts[i]+other.counts[j])
			i++
			j++
		}
	}
	o.vals = mv
	o.counts = mc
	o.zeros = 0
	o.n += other.n
	o.tree.Rebuild(o.counts)
}

// Quantile computes the type-7 quantile (the R/NumPy default, matching
// QuantileSorted) over the multiset.
func (o *OrderStat) Quantile(q float64) (float64, error) {
	// quantileType7 only asks for in-range order statistics, so the
	// Fenwick descent cannot fail here.
	return quantileType7(o.n, q, func(k int64) float64 { return o.vals[o.tree.Pick(k)] })
}
