package pool

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSparesReuseSmallestFit: Take hands back a parked array — the
// smallest with room, and at most twice the request — and allocates
// only when none fits.
func TestSparesReuseSmallestFit(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing reclaims the parked arrays mid-test
	var p Spares[uint32]
	small, big := make([]uint32, 100), make([]uint32, 1000)
	p.Put(big)
	p.Put(small)
	s, reused := p.Take(50)
	if !reused || len(s) != 50 || &s[0] != &small[0] {
		t.Fatalf("Take(50) = len %d, reused %v: want the 100-entry array", len(s), reused)
	}
	if s, reused = p.Take(400); reused || len(s) != 400 {
		t.Fatalf("Take(400) = len %d, reused %v: the 1000-entry array is over twice the request", len(s), reused)
	}
	s, reused = p.Take(500)
	if !reused || &s[0] != &big[0] {
		t.Fatal("Take(500) did not reuse the 1000-entry array")
	}
	s, reused = p.Take(500)
	if reused || len(s) != 500 || cap(s) < 500 {
		t.Fatalf("Take from an empty Spares: len %d cap %d reused %v", len(s), cap(s), reused)
	}
	for _, v := range s {
		if v != 0 {
			t.Fatal("a fresh slice is not zeroed")
		}
	}
}

// TestSparesHoldNothingAlive: a parked array is only weakly held, so a
// collection reclaims it and the next Take allocates.
func TestSparesHoldNothingAlive(t *testing.T) {
	var p Spares[float64]
	p.Put(make([]float64, 1<<16))
	runtime.GC()
	runtime.GC()
	if _, reused := p.Take(10); reused {
		t.Fatal("a parked array survived a collection")
	}
}
