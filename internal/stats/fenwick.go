package stats

// Fenwick is a binary indexed tree over int64 weights: O(log n) point
// update, prefix sum and weighted pick. It is the index structure behind
// the order-statistic multiset (orderstat.go) and the weighted
// part/generation picks of the delta-maintenance hot path — the places
// profiling showed linear scans dominating per-item constants.
//
// The zero value is an empty tree. Methods never allocate except when
// the tree itself grows (Append/Rebuild), so steady-state use is
// allocation-free. Weights must stay non-negative for Pick to be
// meaningful; callers maintain that invariant.
type Fenwick struct {
	tree  []int64 // 1-indexed partial sums
	total int64
}

// Total returns the sum of all weights.
func (f *Fenwick) Total() int64 { return f.total }

// Reset empties the tree, keeping capacity.
func (f *Fenwick) Reset() {
	f.tree = f.tree[:0]
	f.total = 0
}

// Rebuild replaces the tree contents with the given weights in O(n),
// reusing the backing array when it is large enough.
func (f *Fenwick) Rebuild(weights []int64) {
	n := len(weights)
	if cap(f.tree) < n {
		f.tree = make([]int64, n)
	}
	f.tree = f.tree[:n]
	f.total = 0
	for i := range f.tree {
		f.tree[i] = 0
	}
	// Standard linear-time construction: place each weight, then push its
	// partial sum to the parent slot.
	for i, w := range weights {
		f.tree[i] += w
		f.total += w
		if p := i | (i + 1); p < n {
			f.tree[p] += f.tree[i]
		}
	}
}

// Append adds one slot with the given weight at index Len().
func (f *Fenwick) Append(w int64) {
	i := len(f.tree)
	// tree[i] covers the range (i - lowbit(i+1), i]; reconstruct that
	// partial sum from prefixes of the existing slots.
	lo := i + 1 - ((i + 1) & -(i + 1)) // 0-based start of covered range
	f.tree = append(f.tree, w+f.Prefix(i)-f.Prefix(lo))
	f.total += w
}

// Add adds d to the weight at slot i.
func (f *Fenwick) Add(i int, d int64) {
	f.total += d
	for ; i < len(f.tree); i |= i + 1 {
		f.tree[i] += d
	}
}

// Prefix returns the sum of weights in slots [0, i).
func (f *Fenwick) Prefix(i int) int64 {
	var s int64
	for ; i > 0; i &= i - 1 {
		s += f.tree[i-1]
	}
	return s
}

// Pick maps x ∈ [0, Total()) to the slot containing it in the
// concatenation of the weights: the smallest i with Prefix(i+1) > x.
// This is exactly the weighted pick a linear cumulative scan computes,
// in O(log n), so replacing a scan with Pick preserves rng-for-rng
// determinism. Slots with zero weight are never returned. Behaviour is
// undefined for x outside [0, Total()).
func (f *Fenwick) Pick(x int64) int {
	idx := 0 // 1-indexed position after the descent
	mask := 1
	for mask<<1 <= len(f.tree) {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := idx + mask
		if next <= len(f.tree) && f.tree[next-1] <= x {
			x -= f.tree[next-1]
			idx = next
		}
	}
	return idx
}
