package stats

import (
	"math/rand/v2"
	"testing"
)

// refPick is the linear cumulative scan Pick replaces: the first slot
// whose cumulative weight exceeds x.
func refPick(weights []int64, x int64) int {
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return -1
}

func TestFenwickMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(40)
		weights := make([]int64, n)
		var f Fenwick
		for i := range weights {
			weights[i] = int64(rng.IntN(5)) // zeros included
			f.Append(weights[i])
		}
		// Interleave point updates with checks.
		for step := 0; step < 60; step++ {
			if rng.IntN(3) == 0 {
				i := rng.IntN(n)
				d := int64(rng.IntN(4))
				weights[i] += d
				f.Add(i, d)
			}
			var total int64
			for _, w := range weights {
				total += w
			}
			if f.Total() != total {
				t.Fatalf("total %d, want %d", f.Total(), total)
			}
			for i := 0; i <= n; i++ {
				var p int64
				for _, w := range weights[:i] {
					p += w
				}
				if got := f.Prefix(i); got != p {
					t.Fatalf("prefix(%d) = %d, want %d", i, got, p)
				}
			}
			if total == 0 {
				continue
			}
			for x := int64(0); x < total; x++ {
				if got, want := f.Pick(x), refPick(weights, x); got != want {
					t.Fatalf("pick(%d) = %d, want %d (weights %v)", x, got, want, weights)
				}
			}
		}
	}
}

func TestFenwickRebuild(t *testing.T) {
	var f Fenwick
	f.Append(7) // pre-existing state must be replaced wholesale
	weights := []int64{3, 0, 5, 1, 0, 2}
	f.Rebuild(weights)
	if len(f.tree) != len(weights) || f.Total() != 11 {
		t.Fatalf("len/total = %d/%d", len(f.tree), f.Total())
	}
	for x := int64(0); x < 11; x++ {
		if got, want := f.Pick(x), refPick(weights, x); got != want {
			t.Fatalf("pick(%d) = %d, want %d", x, got, want)
		}
	}
	f.Reset()
	if len(f.tree) != 0 || f.Total() != 0 {
		t.Fatalf("reset left len=%d total=%d", len(f.tree), f.Total())
	}
}

func TestFenwickPickSkipsZeroWeights(t *testing.T) {
	var f Fenwick
	weights := []int64{0, 4, 0, 0, 6, 0}
	f.Rebuild(weights)
	for x := int64(0); x < f.Total(); x++ {
		i := f.Pick(x)
		if weights[i] == 0 {
			t.Fatalf("pick(%d) landed on zero-weight slot %d", x, i)
		}
	}
}
