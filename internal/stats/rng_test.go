package stats

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// pcgState reads a math/rand/v2 PCG's 128-bit state through its binary
// encoding ("pcg:" + hi + lo, big-endian).
func pcgState(t testing.TB, p *rand.PCG) (hi, lo uint64) {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil || len(b) != 20 {
		t.Fatalf("rand.PCG.MarshalBinary: %d bytes, %v", len(b), err)
	}
	return binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:])
}

// checkIndices draws `draws` indices below n from both generators — ours
// through Indices in uneven blocks, the toolchain's through IntN — and
// requires equal values and equal state afterwards.
func checkIndices(t testing.TB, s1, s2 uint64, n, draws int) {
	t.Helper()
	got := NewPCG(s1, s2)
	refSrc := rand.NewPCG(s1, s2)
	ref := rand.New(refSrc)
	var buf [IndexBlock]uint32
	for done, block := 0, 1; done < draws; block = block%len(buf) + 1 {
		dst := buf[:min(block, draws-done)]
		got.Indices(dst, n)
		for i, v := range dst {
			if want := ref.IntN(n); int(v) != want {
				t.Fatalf("seed (%#x, %#x) n=%d draw %d: Indices %d, rand.IntN %d", s1, s2, n, done+i, v, want)
			}
		}
		done += len(dst)
	}
	if hi, lo := pcgState(t, refSrc); got.hi != hi || got.lo != lo {
		t.Fatalf("seed (%#x, %#x) n=%d: state (%#x, %#x) after %d draws, rand.PCG is at (%#x, %#x)", s1, s2, n, got.hi, got.lo, draws, hi, lo)
	}
}

// checkIntN draws from both generators with a bound that changes every
// draw — ours through IntN, the toolchain's through rand.New(p).IntN —
// and requires equal values and equal state afterwards.
func checkIntN(t testing.TB, s1, s2 uint64, bounds []int, draws int) {
	t.Helper()
	got := NewPCG(s1, s2)
	refSrc := rand.NewPCG(s1, s2)
	ref := rand.New(refSrc)
	for i := 0; i < draws; i++ {
		n := bounds[i%len(bounds)]
		if g, w := got.IntN(n), ref.IntN(n); g != w {
			t.Fatalf("seed (%#x, %#x) draw %d n=%d: IntN %d, rand.IntN %d", s1, s2, i, n, g, w)
		}
	}
	if hi, lo := pcgState(t, refSrc); got.hi != hi || got.lo != lo {
		t.Fatalf("seed (%#x, %#x): IntN state (%#x, %#x) after %d draws, rand.PCG is at (%#x, %#x)", s1, s2, got.hi, got.lo, draws, hi, lo)
	}
}

// TestPCGMatchesMathRand pins PCG to the toolchain's math/rand/v2: the
// raw stream, the bounded draws for sizes on both sides of every branch
// IntN takes (one, powers of two, tiny and pilot-sized moduli, the
// largest that fit 31 and 32 bits, moduli just past a power of two,
// which reject most often), one at a time with the bound changing every
// draw as a partial Fisher–Yates pass changes it, and the state they
// leave. A Go
// release that changed its PCG or IntN would fail here, before any
// fixed-seed report moved.
func TestPCGMatchesMathRand(t *testing.T) {
	const draws = 100_000
	seeds := [][2]uint64{{0, 0}, {1, 0x71374491428a2f98}, {0xdeadbeef, 0x1f83d9abfb41bd6b}, {^uint64(0), ^uint64(0)}}
	for _, s := range seeds {
		got, ref := NewPCG(s[0], s[1]), rand.NewPCG(s[0], s[1])
		for i := 0; i < draws; i++ {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %v draw %d: Uint64 %#x, rand.PCG %#x", s, i, g, w)
			}
		}
		// As a rand.Source it serves the other draws from the same state.
		a, b := rand.New(got), rand.New(ref)
		for i := 0; i < 1000; i++ {
			if g, w := a.NormFloat64(), b.NormFloat64(); g != w {
				t.Fatalf("seed %v: NormFloat64 %v through PCG, %v through rand.PCG", s, g, w)
			}
		}
	}
	sizes := []int{1, 2, 3, 7, 625, 1024, 9_999, 10_000, 1 << 20, 1<<31 - 1, 1<<32 - 1, 1 << 32}
	for _, n := range sizes {
		for _, s := range seeds {
			checkIndices(t, s[0], s[1], n, draws)
		}
	}
	bounds := []int{1, 2, 1 << 10, 1 << 32, 1<<31 + 1, 3 << 30, 3, 625, 9_999, 1<<32 - 1}
	shuffle := make([]int, 10_000) // a partial Fisher–Yates pass: n, n−1, …
	for i := range shuffle {
		shuffle[i] = len(shuffle) - i
	}
	for _, s := range seeds {
		checkIntN(t, s[0], s[1], bounds, draws)
		checkIntN(t, s[0], s[1], shuffle, draws)
	}
}

// mul128 is (a · b) mod 2¹²⁸ on (hi, lo) pairs.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(aLo, bLo)
	return hi + aHi*bLo + aLo*bHi, lo
}

// stateBefore inverts pcgStep: the state whose next step is (hi, lo).
func stateBefore(hi, lo uint64) (uint64, uint64) {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	// Newton's iteration for mul⁻¹ mod 2¹²⁸: x ← x·(2 − mul·x) doubles
	// the correct low bits, and x = mul is right to three.
	invHi, invLo := uint64(mulHi), uint64(mulLo)
	for i := 0; i < 6; i++ {
		tHi, tLo := mul128(mulHi, mulLo, invHi, invLo)
		tLo, borrow := bits.Sub64(2, tLo, 0)
		tHi, _ = bits.Sub64(0, tHi, borrow)
		invHi, invLo = mul128(invHi, invLo, tHi, tLo)
	}
	lo, borrow := bits.Sub64(lo, incLo, 0)
	hi, _ = bits.Sub64(hi, incHi, borrow)
	return mul128(hi, lo, invHi, invLo)
}

// TestPCGIndicesRejection drives the branch no stream reaches in a
// test's lifetime: with n ≤ 2³² a draw is rejected once in 2⁶⁴/n. A
// stepped state whose high word is zero outputs zero, which every
// modulus that is not a power of two rejects, so both generators are
// started one step before such a state and must discard it alike.
func TestPCGIndicesRejection(t *testing.T) {
	for _, lo := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
		hi0, lo0 := stateBefore(0, lo)
		if h, l := pcgStep(hi0, lo0); h != 0 || l != lo {
			t.Fatalf("stateBefore(0, %#x) steps to (%#x, %#x)", lo, h, l)
		}
		for _, n := range []int{3, 625, 10_000, 1<<32 - 1} {
			checkIndices(t, hi0, lo0, n, 64)
			// The discarded output cost a second step.
			one, two := NewPCG(hi0, lo0), NewPCG(hi0, lo0)
			one.Indices(make([]uint32, 1), n)
			two.Uint64()
			two.Uint64()
			if *one != *two {
				t.Fatalf("n=%d: one index from a rejecting state did not take two steps", n)
			}
			checkIntN(t, hi0, lo0, []int{n}, 64)
			three := NewPCG(hi0, lo0)
			three.IntN(n)
			if *three != *two {
				t.Fatalf("n=%d: one IntN from a rejecting state did not take two steps", n)
			}
		}
	}
}

func TestPCGIntNRefusesOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 1<<32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntN(%d) did not panic", n)
				}
			}()
			NewPCG(1, 2).IntN(n)
		}()
	}
}

func TestPCGIndicesRefusesOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, 1<<32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Indices(n=%d) did not panic", n)
				}
			}()
			NewPCG(1, 2).Indices(make([]uint32, 1), n)
		}()
	}
}

// TestSplitRNGIsSplitPCG pins the two faces of a family member to one
// stream.
func TestSplitRNGIsSplitPCG(t *testing.T) {
	for i := 0; i < 8; i++ {
		r, p := SplitRNG(7, 11, i), SplitPCG(7, 11, i)
		for k := 0; k < 100; k++ {
			if g, w := p.Uint64(), r.Uint64(); g != w {
				t.Fatalf("member %d draw %d: SplitPCG %#x, SplitRNG %#x", i, k, g, w)
			}
		}
	}
}

// FuzzPCGIndices is the open-ended form of TestPCGMatchesMathRand: any
// seed pair, any modulus in range.
func FuzzPCGIndices(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(1))
	f.Add(uint64(1), uint64(0x71374491428a2f98), uint32(10_000))
	f.Add(^uint64(0), uint64(42), ^uint32(0))
	f.Add(uint64(3), uint64(4), uint32(1<<31))
	f.Fuzz(func(t *testing.T, s1, s2 uint64, n uint32) {
		if n == 0 {
			n = 1
		}
		checkIndices(t, s1, s2, int(n), 2000)
	})
}
