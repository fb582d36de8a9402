package stats

import (
	"math/bits"
	"math/rand/v2"
)

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014). It
// bijectively scrambles a 64-bit word and is the standard way to expand
// one seed into many decorrelated seed words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PCG is math/rand/v2's PCG-DXSM generator, stream for stream:
// NewPCG(s1, s2) and rand.NewPCG(s1, s2) produce the same Uint64
// sequence from the same 128-bit state (pinned against the toolchain by
// TestPCGMatchesMathRand). It is a rand.Source, so rand.New(p) serves
// every draw a *rand.Rand offers from that state; what it adds is the
// bounded draws without an interface dispatch into the source: IntN, one
// at a time, and Indices, a resample's worth in one call.
type PCG struct {
	hi, lo uint64
}

// NewPCG returns a PCG seeded as rand.NewPCG(seed1, seed2).
func NewPCG(seed1, seed2 uint64) *PCG { return &PCG{hi: seed1, lo: seed2} }

// pcgStep advances the 128-bit LCG state: state = state*mul + inc.
func pcgStep(hi, lo uint64) (uint64, uint64) {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	h, l := bits.Mul64(lo, mulLo)
	h += hi*mulLo + lo*mulHi
	l, c := bits.Add64(l, incLo, 0)
	h, _ = bits.Add64(h, incHi, c)
	return h, l
}

// pcgOut is the DXSM ("double xorshift multiply") output permutation of
// a state that has just been stepped.
func pcgOut(hi, lo uint64) uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// Uint64 implements rand.Source.
func (p *PCG) Uint64() uint64 {
	p.hi, p.lo = pcgStep(p.hi, p.lo)
	return pcgOut(p.hi, p.lo)
}

// IntN returns the value rand.New(p).IntN(n) would, and leaves p where
// that call would: Indices of one. Like Indices, it panics unless n is
// in [1, 2³²].
func (p *PCG) IntN(n int) int {
	var one [1]uint32
	p.Indices(one[:], n)
	return int(one[0])
}

// Indices fills dst with the values rand.New(p).IntN(n) would return,
// in order, and leaves p where those len(dst) calls would: the same
// mask for a power of two, the same 64-bit multiply-high with the same
// rejection threshold otherwise. The state stays in registers for the
// whole block. n must be in [1, 2³²] — a resample indexes a slice that
// is in memory; like IntN, Indices panics otherwise.
//
//earl:hotpath
func (p *PCG) Indices(dst []uint32, n int) {
	if n <= 0 || uint64(n) > 1<<32 {
		panic("stats: PCG.Indices needs n in [1, 2^32]")
	}
	un := uint64(n)
	hi, lo := p.hi, p.lo
	if un&(un-1) == 0 {
		for i := range dst {
			hi, lo = pcgStep(hi, lo)
			dst[i] = uint32(pcgOut(hi, lo) & (un - 1))
		}
		p.hi, p.lo = hi, lo
		return
	}
	for i := range dst {
		hi, lo = pcgStep(hi, lo)
		v, frac := bits.Mul64(pcgOut(hi, lo), un)
		if frac < un {
			thresh := -un % un
			for frac < thresh {
				hi, lo = pcgStep(hi, lo)
				v, frac = bits.Mul64(pcgOut(hi, lo), un)
			}
		}
		dst[i] = uint32(v)
	}
	p.hi, p.lo = hi, lo
}

// IndexBlock is how many indices a caller draws per Indices call when
// it walks a resample through a stack buffer: large enough that the
// call and the state's load and store vanish, small enough to stay in
// L1 beside the data being gathered.
const IndexBlock = 512

// SplitPCG derives the i-th member of a family of independent PCG
// streams from two seed words. The stream depends only on (seed1, seed2,
// i) — never on which goroutine or worker happens to run it — which is
// what makes the parallel resampling engines reproducible at any
// parallelism level.
func SplitPCG(seed1, seed2 uint64, i int) *PCG {
	u := uint64(i)
	return NewPCG(splitmix64(seed1^splitmix64(u)), splitmix64(seed2+u))
}

// SplitRNG is SplitPCG behind a *rand.Rand, for callers that draw more
// than indices from the stream.
func SplitRNG(seed1, seed2 uint64, i int) *rand.Rand {
	return rand.New(SplitPCG(seed1, seed2, i))
}
