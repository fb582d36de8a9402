package pool

import (
	"slices"
	"sync"
	"weak"
)

// maxParked bounds how many slices one Spares keeps parked; parking one
// more drops the oldest.
const maxParked = 64

// Spares parks slices their owners are done with, for a later Take to
// reuse instead of allocating and zeroing a fresh array. A parked slice
// is held only through a weak pointer, so it never keeps memory alive:
// the next garbage collection reclaims whatever no Take has claimed, and
// a heap measured after runtime.GC() does not count it. The zero value
// is ready to use, and a Spares is safe for concurrent use.
type Spares[T any] struct {
	mu     sync.Mutex
	parked []weak.Pointer[spare[T]]
}

// spare boxes one parked slice: the box is what the weak pointer points
// at, and it alone keeps the array reachable.
type spare[T any] struct{ s []T }

// Put parks s's backing array. The caller must not touch s afterwards.
func (p *Spares[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	w := weak.Make(&spare[T]{s: s[:cap(s)]})
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.parked) == maxParked {
		p.parked = append(p.parked[:0], p.parked[1:]...)
	}
	p.parked = append(p.parked, w)
}

// Take returns a slice of length n. reused reports that it is a parked
// one — the smallest still alive with room for n and no more than twice
// that, so a short slice never pins a far larger array — whose contents
// are whatever its last owner left; otherwise it is freshly allocated
// and zeroed, with the capacity the allocator rounds n up to, so that
// once parked it also fits a request a little larger than n.
func (p *Spares[T]) Take(n int) (s []T, reused bool) {
	p.mu.Lock()
	var best *spare[T]
	at := 0
	live := p.parked[:0]
	for _, w := range p.parked {
		sp := w.Value()
		if sp == nil {
			continue // reclaimed by a collection
		}
		if len(sp.s) >= n && len(sp.s) <= 2*n && (best == nil || len(sp.s) < len(best.s)) {
			best, at = sp, len(live)
		}
		live = append(live, w)
	}
	if best != nil {
		live = append(live[:at], live[at+1:]...)
	}
	clear(p.parked[len(live):])
	p.parked = live
	p.mu.Unlock()
	if best == nil {
		return slices.Grow([]T(nil), n)[:n], false
	}
	return best.s[:n], true
}
