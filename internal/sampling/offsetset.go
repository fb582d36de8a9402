package sampling

// offsetSet is the without-replacement bookkeeping of a sampler: the
// line-start offsets already included (§3.3's "bit-vector representing
// the start byte locations"). Membership is all it is asked, so it is a
// flat open-addressed table of the offsets themselves — one probe
// sequence per draw, no per-entry header, and growth that is one pass
// over a slice. The zero value is an empty set.
type offsetSet struct {
	slots []int64 // offset+1 per occupied slot; 0 is empty
	n     int
	shift uint // 64 − log2(len(slots))
}

// offsetSetMinSlots (2⁶) is the table's first size.
const offsetSetMinSlots = 1 << 6

// slot is a multiplicative (Fibonacci) hash: record starts are a
// near-arithmetic sequence, which the high bits of the product spread
// evenly.
func (s *offsetSet) slot(key int64) int {
	return int(uint64(key) * 0x9e3779b97f4a7c15 >> s.shift)
}

// add inserts off (≥ 0) and reports whether it was absent.
//
//earl:hotpath
func (s *offsetSet) add(off int64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.reserve(s.n + 1)
	}
	key := off + 1
	mask := len(s.slots) - 1
	for i := s.slot(key); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case key:
			return false
		case 0:
			s.slots[i] = key
			s.n++
			return true
		}
	}
}

// reserve makes room for the set to hold n offsets at no more than half
// full, so that a caller who knows how many it is about to add grows the
// table once: into the smallest power of two of at least 2n slots.
func (s *offsetSet) reserve(n int) {
	if 2*n <= len(s.slots) {
		return
	}
	size, shift := offsetSetMinSlots, uint(64-6)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	old := s.slots
	s.slots, s.shift = make([]int64, size), shift
	mask := size - 1
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := s.slot(key)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = key
	}
}
