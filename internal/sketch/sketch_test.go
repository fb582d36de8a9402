package sketch

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/simcost"
	"repro/internal/stats"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestPartDeleteAllReturnsExactMultiset(t *testing.T) {
	rng := stats.NewPCG(1, 2)
	in := []float64{5, 5, 7, 9, 9, 9, 11}
	want := append([]float64(nil), in...) // the part owns in from here on
	p := NewPart(in, 2, rng, nil)
	var out []float64
	for p.Size() > 0 {
		v, err := p.DeleteRandom()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	if _, err := p.DeleteRandom(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	sort.Float64s(out)
	sort.Float64s(want)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("multiset mismatch: %v vs %v", out, want)
		}
	}
}

// TestPartOwnsItsBuffer: a part built over a PartBuffer keeps that
// buffer as its storage, and a maintenance iteration's adds (up to
// c·√n) land in its capacity without a reallocation.
func TestPartOwnsItsBuffer(t *testing.T) {
	rng := stats.NewPCG(3, 4)
	const n = 400
	buf := append(PartBuffer(n, DefaultC), seq(n)...)
	p := NewPart(buf, DefaultC, rng, nil)
	for i := 0; i < int(DefaultC*math.Sqrt(n)); i++ {
		p.Add(float64(n + i))
	}
	if &p.items[0] != &buf[0] {
		t.Fatal("the part copied its items or reallocated them")
	}
}

func TestPartDeleteIsUniform(t *testing.T) {
	// Deleting one item from {0..9} many times: each item should be the
	// first deletion ≈10% of the time.
	const trials = 5000
	counts := make([]int, 10)
	for trial := 0; trial < trials; trial++ {
		rng := stats.NewPCG(uint64(trial), 3)
		p := NewPart(seq(10), DefaultC, rng, nil)
		v, err := p.DeleteRandom()
		if err != nil {
			t.Fatal(err)
		}
		counts[int(v)]++
	}
	want := float64(trials) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("item %d deleted first %d times, want ≈%v", i, c, want)
		}
	}
}

func TestPartSketchAbsorbsSmallUpdates(t *testing.T) {
	// √n-scale deletions must not touch the disk layer when c covers
	// them: n=10000, sketch ≈ 3·100 = 300 ≥ the 150 deletes.
	var m simcost.Metrics
	rng := stats.NewPCG(5, 6)
	p := NewPart(seq(10000), DefaultC, rng, &m)
	for i := 0; i < 150; i++ {
		if _, err := p.DeleteRandom(); err != nil {
			t.Fatal(err)
		}
	}
	// Each refresh charges one seek.
	if m.Snapshot().DiskSeeks != 0 {
		t.Fatalf("sketch refreshed for √n-scale updates: %v", m.Snapshot())
	}
}

func TestPartRefreshChargesIO(t *testing.T) {
	var m simcost.Metrics
	rng := stats.NewPCG(7, 8)
	p := NewPart(seq(100), 0.5, rng, &m) // tiny sketch: 5 items
	for i := 0; i < 50; i++ {
		if _, err := p.DeleteRandom(); err != nil {
			t.Fatal(err)
		}
	}
	// Each refresh charges one seek plus the sketch read.
	s := m.Snapshot()
	if s.DiskSeeks == 0 || s.BytesRead == 0 {
		t.Fatalf("a tiny sketch was not refreshed with I/O charged: %v", s)
	}
}

func TestPartAddThenDeleteConserves(t *testing.T) {
	rng := stats.NewPCG(9, 10)
	p := NewPart(seq(20), DefaultC, rng, nil)
	p.Add(100)
	p.Add(101)
	if p.Size() != 22 {
		t.Fatalf("size = %d", p.Size())
	}
	seen := map[float64]int{}
	for p.Size() > 0 {
		v, _ := p.DeleteRandom()
		seen[v]++
	}
	if seen[100] != 1 || seen[101] != 1 {
		t.Fatalf("added items lost: %v", seen)
	}
	if len(seen) != 22 {
		t.Fatalf("distinct = %d", len(seen))
	}
}

func TestPartEndIterationKeepsMultiset(t *testing.T) {
	rng := stats.NewPCG(11, 12)
	p := NewPart(seq(50), DefaultC, rng, nil)
	for i := 0; i < 10; i++ {
		p.DeleteRandom()
	}
	p.EndIteration()
	if p.Size() != 40 {
		t.Fatalf("size after EndIteration = %d", p.Size())
	}
	items := NewPart(nil, DefaultC, rng, nil) // silence unused warning pattern
	_ = items
	var out []float64
	for p.Size() > 0 {
		v, _ := p.DeleteRandom()
		out = append(out, v)
	}
	if len(out) != 40 {
		t.Fatalf("drained %d", len(out))
	}
}

func TestPartPropertyConservation(t *testing.T) {
	f := func(seed uint64, delsRaw, addsRaw uint8) bool {
		rng := stats.NewPCG(seed, 13)
		n := 30
		p := NewPart(seq(n), 1.5, rng, nil)
		dels := int(delsRaw) % n
		adds := int(addsRaw) % 20
		for i := 0; i < dels; i++ {
			if _, err := p.DeleteRandom(); err != nil {
				return false
			}
		}
		for i := 0; i < adds; i++ {
			p.Add(1000 + float64(i))
		}
		return p.Size() == n-dels+adds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartEmptyInput(t *testing.T) {
	rng := stats.NewPCG(1, 1)
	p := NewPart(nil, DefaultC, rng, nil)
	if p.Size() != 0 {
		t.Fatal("empty part size")
	}
	if _, err := p.DeleteRandom(); !errors.Is(err, ErrEmpty) {
		t.Fatal("delete from empty should error")
	}
	p.Add(1)
	v, err := p.DeleteRandom()
	if err != nil || v != 1 {
		t.Fatalf("delete after add = %v, %v", v, err)
	}
}

func TestCacheDrawsFromBacking(t *testing.T) {
	rng := stats.NewPCG(3, 4)
	backing := seq(100)
	c, err := NewCache(backing, nil, DefaultC, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v := c.Next()
		if v < 0 || v > 99 || v != math.Trunc(v) {
			t.Fatalf("draw %v not from backing", v)
		}
	}
}

func TestCacheRefillChargesIO(t *testing.T) {
	var m simcost.Metrics
	rng := stats.NewPCG(5, 5)
	c, err := NewCache(seq(100), nil, DefaultC, rng, &m)
	if err != nil {
		t.Fatal(err)
	}
	// First sketch is free; drawing beyond it forces charged refills.
	for i := 0; i < 100; i++ {
		c.Next()
	}
	// Each refill charges one seek.
	if m.Snapshot().DiskSeeks == 0 {
		t.Fatal("no refill charged a seek")
	}
}

func TestCacheUniformity(t *testing.T) {
	counts := make([]int, 10)
	const draws = 20000
	rng := stats.NewPCG(6, 7)
	c, err := NewCache(seq(10), nil, DefaultC, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < draws; i++ {
		counts[int(c.Next())]++
	}
	want := float64(draws) / 10
	for i, cnt := range counts {
		if math.Abs(float64(cnt)-want) > 6*math.Sqrt(want) {
			t.Fatalf("value %d drawn %d times, want ≈%v", i, cnt, want)
		}
	}
}

func TestCacheEmptyBacking(t *testing.T) {
	rng := stats.NewPCG(1, 1)
	if _, err := NewCache(nil, nil, DefaultC, rng, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// TestDrawsAreRandIntN pins the draws to the stream's rand.Rand face: a
// part's sketch shuffle and adds, and a cache's prefetch, take the
// values rand.New(rng).IntN would give, call for call, and leave the
// stream where those calls would.
func TestDrawsAreRandIntN(t *testing.T) {
	const n = 1000
	p := NewPart(seq(n), DefaultC, stats.NewPCG(8, 9), nil)
	ref := rand.New(stats.NewPCG(8, 9))
	want := seq(n)
	k := Len(DefaultC, n)
	for i := 0; i < k; i++ {
		j := i + ref.IntN(n-i)
		want[i], want[j] = want[j], want[i]
	}
	p.Add(n)
	want = append(want, n)
	j := ref.IntN(len(want))
	want[len(want)-1], want[j] = want[j], want[len(want)-1]
	if !slices.Equal(p.items, want) {
		t.Fatal("the part's shuffle and add differ from rand.IntN's")
	}
	for _, size := range []int{10, 40_000} { // one index block, and several
		rng, ref := stats.NewPCG(10, 11), rand.New(stats.NewPCG(10, 11))
		c, err := NewCache(seq(size), nil, DefaultC, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*len(c.buf); i++ {
			if got, want := c.Next(), float64(ref.IntN(size)); got != want {
				t.Fatalf("size %d draw %d: cache %v, rand.IntN %v", size, i, got, want)
			}
		}
		if got, want := rng.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("size %d: the stream moved on differently", size)
		}
	}
}

// TestCacheKeepsItsSketchInTheBufferGiven: a cache built over a buffer
// with room holds its sketch there, refills included; over one without
// room, in a fresh one.
func TestCacheKeepsItsSketchInTheBufferGiven(t *testing.T) {
	spare := make([]float64, 0, 64)
	var m simcost.Metrics
	c, err := NewCache(seq(100), spare, DefaultC, stats.NewPCG(3, 4), &m)
	if err != nil {
		t.Fatal(err)
	}
	for range 100 {
		c.Next()
	}
	// Each refill charges one seek.
	if m.Snapshot().DiskSeeks == 0 || &c.buf[0] != &spare[:1][0] {
		t.Fatal("the cache did not keep its sketch in the buffer it was given")
	}
	small := make([]float64, 0, 2)
	if c, _ := NewCache(seq(100), small, DefaultC, stats.NewPCG(3, 4), nil); len(c.buf) != Len(DefaultC, 100) {
		t.Fatalf("a cache over a short buffer holds %d items", len(c.buf))
	}
}
