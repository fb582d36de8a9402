// Package sketch implements the two-layer memory/disk structure of §4.1:
// for each resample partition b_Δsk and each delta sample Δs_k, a small
// random "sketch" of c·√n items is held in memory while the full data
// set conceptually lives on HDFS. Random deletions and additions during
// delta maintenance are served sequentially from the sketches; only when
// a sketch is used up does the structure touch "disk" — committing the
// changes and resampling a fresh sketch, charged to the cost metrics.
//
// The paper's sizing argument: when a sample of size n grows to n′, the
// number of items a resample must shed or gain concentrates (Eq. 3)
// within a few σ₀ = √(n(1−n/n′)) < √n of zero, so a sketch of c·√n
// items absorbs almost every iteration's updates without disk I/O (the
// 3-sigma rule — c=3 covers 99.7% of iterations).
package sketch

import (
	"errors"
	"math"

	"repro/internal/simcost"
	"repro/internal/stats"
)

// DefaultC is the default sketch-size constant; 3 matches the paper's
// 3-sigma sizing argument.
const DefaultC = 3.0

// ErrEmpty is returned when an operation needs items and none remain.
var ErrEmpty = errors.New("sketch: no items remain")

// bytesPerItem is the charged size of one float64 record on disk.
const bytesPerItem = 8

// Len is c·√n rounded up: the sketch size of n items under the sketch
// constant c (DefaultC if <= 0), a cache's over n items included.
func Len(c float64, n int) int {
	if c <= 0 {
		c = DefaultC
	}
	return int(math.Ceil(c * math.Sqrt(float64(n))))
}

// Part is one resample partition b_Δsk: the multiset of items a resample
// drew from delta-generation k. It supports uniform random deletion
// without replacement (served from the in-memory sketch region) and
// random-position insertion. The full multiset is conceptually HDFS-
// resident; only sketch refreshes are charged I/O. Its draws come from
// the owner's PCG stream directly, each the value rand.New(rng).IntN
// would give.
type Part struct {
	items     []float64 // live multiset, randomly shuffled up to sketchEnd
	sketchEnd int       // items[:sketchEnd] is the in-memory sketch region
	c         float64
	rng       *stats.PCG
	metrics   *simcost.Metrics
}

// NewPart builds a partition over items and takes ownership of them:
// the part shuffles, deletes and appends in place, so the caller must
// not touch the slice again. A buffer from PartBuffer has the room for
// a maintenance iteration's adds. c is the sketch constant (DefaultC if
// <= 0); metrics may be nil.
func NewPart(items []float64, c float64, rng *stats.PCG, metrics *simcost.Metrics) *Part {
	p := &Part{items: items, c: c, rng: rng, metrics: metrics}
	// The initial sketch rides along with the data that produced the
	// partition (it is in memory already when the resample is built), so
	// no I/O charge here.
	p.shuffleSketch()
	return p
}

// PartBuffer returns an empty buffer for the n items of a part to come:
// its c·√n capacity slack lets the ±σ₀ < √n adds of a maintenance
// iteration land in place instead of reallocating the backing array. c
// is the sketch constant (DefaultC if <= 0).
func PartBuffer(n int, c float64) []float64 {
	return make([]float64, 0, n+Len(c, n)+4)
}

func (p *Part) sketchSize() int { return min(Len(p.c, len(p.items)), len(p.items)) }

// shuffleSketch makes items[:sketchSize] a uniform random subset in
// random order by a partial Fisher–Yates pass.
func (p *Part) shuffleSketch() {
	k := p.sketchSize()
	for i := 0; i < k; i++ {
		j := i + p.rng.IntN(len(p.items)-i)
		p.items[i], p.items[j] = p.items[j], p.items[i]
	}
	p.sketchEnd = k
}

// Size returns the number of items currently in the partition.
func (p *Part) Size() int { return len(p.items) }

// DeleteRandom removes and returns one uniformly random item. The draw
// is served from the sketch region; when the sketch is exhausted the
// change set is committed and a new sketch is resampled from "disk",
// charging a seek plus the sketch read.
func (p *Part) DeleteRandom() (float64, error) {
	if len(p.items) == 0 {
		return 0, ErrEmpty
	}
	if p.sketchEnd == 0 {
		p.refresh()
	}
	// Take the first sketch item; keep the remaining sketch contiguous.
	v := p.items[0]
	p.items[0] = p.items[p.sketchEnd-1]
	p.items[p.sketchEnd-1] = p.items[len(p.items)-1]
	p.items = p.items[:len(p.items)-1]
	p.sketchEnd--
	return v, nil
}

// Add inserts an item at a uniformly random live position, keeping
// subsequent DeleteRandom draws uniform even before the next refresh.
func (p *Part) Add(v float64) {
	p.items = append(p.items, v)
	// Swap into a random position; if it lands inside the sketch region
	// it becomes deletable this iteration, matching a true re-shuffle.
	j := p.rng.IntN(len(p.items))
	p.items[len(p.items)-1], p.items[j] = p.items[j], p.items[len(p.items)-1]
}

// refresh commits outstanding changes and draws a fresh sketch from the
// disk layer (§4.1's "commit the changes … resample a new sketch").
func (p *Part) refresh() {
	p.shuffleSketch()
	p.metrics.Charge(simcost.Snapshot{DiskSeeks: 1, BytesRead: int64(p.sketchEnd) * bytesPerItem, BytesWritten: int64(p.sketchEnd) * bytesPerItem})
}

// EndIteration performs the paper's end-of-iteration bookkeeping: used
// sketch entries are replaced by substituting unused data items reservoir-
// style so the sketch remains a uniform random subset. In this
// representation a partial Fisher–Yates reshuffle of the sketch region
// achieves exactly that distribution; it is memory-only, hence free.
func (p *Part) EndIteration() {
	p.shuffleSketch()
}

// Cache serves with-replacement random draws from a backing data set
// (a delta sample Δs_k) through a prefetched sketch: sketch(Δs_k) in the
// paper. Draw cost is memory-only until the prefetched batch is used up;
// each refill charges one seek plus the batch read.
type Cache struct {
	backing []float64
	buf     []float64
	pos     int
	c       float64
	rng     *stats.PCG
	metrics *simcost.Metrics
}

// NewCache builds a cache over backing (not copied; treated as
// immutable), its sketch held in buf's array when that has room. The
// first sketch is free — the data just arrived in memory when the delta
// sample was drawn.
func NewCache(backing, buf []float64, c float64, rng *stats.PCG, metrics *simcost.Metrics) (*Cache, error) {
	if len(backing) == 0 {
		return nil, ErrEmpty
	}
	cc := &Cache{backing: backing, buf: buf, c: c, rng: rng, metrics: metrics}
	cc.fill(false)
	return cc, nil
}

// fill prefetches the next sketch, a block of Indices: the values as
// many calls of rand.New(rng).IntN(len(backing)) would give.
func (c *Cache) fill(charge bool) {
	k := max(Len(c.c, len(c.backing)), 1)
	if cap(c.buf) < k {
		c.buf = make([]float64, k)
	}
	c.buf = c.buf[:k]
	var idx [stats.IndexBlock]uint32
	for done := 0; done < k; done += len(idx) {
		block := idx[:min(len(idx), k-done)]
		c.rng.Indices(block, len(c.backing))
		for i, j := range block {
			c.buf[done+i] = c.backing[j]
		}
	}
	c.pos = 0
	if charge {
		c.metrics.Charge(simcost.Snapshot{DiskSeeks: 1, BytesRead: int64(k) * bytesPerItem})
	}
}

// Next returns one with-replacement random draw from the backing set.
func (c *Cache) Next() float64 {
	if c.pos >= len(c.buf) {
		c.fill(true)
	}
	v := c.buf[c.pos]
	c.pos++
	return v
}
