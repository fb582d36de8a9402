package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference box runs at two speeds. For ten minutes or more at a
// time every workload is a quarter slower than before, by the same
// factor, with no change of code: a pure ALU loop does not see it, a
// sort or a pointer chase through 2 MB does (README, "The box"). Ten
// runs that straddle such a switch spread wider than any bound the
// contract allows, so the benchmark measures the box's speed right
// around each phase with a fixed kernel of its own — stdlib only,
// nothing of the system under test — and reports times as they would
// read at the reference speed.

// referenceMs is the kernel's time on the reference box at its faster
// speed.
const referenceMs = 4.0

// kernel is one caller's working set: a random gather over 2 MB of
// floats, a sort of 40 k of them and 4 k float parses — the memory,
// branch and decode mix of the system's own hot loops. It allocates
// nothing once built.
type kernel struct {
	xs      []float64
	idx     []uint32
	strs    []string
	scratch []float64
	sink    float64
}

func newKernel(seed uint64) *kernel {
	k := &kernel{xs: make([]float64, 1<<18), idx: make([]uint32, 1<<16), scratch: make([]float64, 40_000)}
	x := seed
	next := func() uint64 { // a fixed LCG: the kernel's data never changes between commits
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	for i := range k.xs {
		k.xs[i] = float64(next()) / (1 << 53) * 100
	}
	for i := range k.idx {
		k.idx[i] = uint32(next() % uint64(len(k.xs)))
	}
	for _, v := range k.xs[:4096] {
		k.strs = append(k.strs, strconv.FormatFloat(v, 'e', 9, 64))
	}
	return k
}

func (k *kernel) run() {
	s := 0.0
	for _, i := range k.idx {
		s += k.xs[i]
	}
	copy(k.scratch, k.xs)
	sort.Float64s(k.scratch)
	for _, t := range k.strs {
		v, _ := strconv.ParseFloat(t, 64) // the strings were formatted from floats
		s += v
	}
	k.sink = s
}

// calibrator reads the box's speed with one kernel per client
// connection, all running at once — the load the timed phases put on
// the cores.
type calibrator struct {
	kernels []*kernel
	rounds  int // kernel runs per caller and reading; 40 take ~0.2 s
}

func newCalibrator(procs, rounds int) *calibrator {
	c := &calibrator{rounds: rounds}
	for p := 0; p < procs; p++ {
		c.kernels = append(c.kernels, newKernel(uint64(p)+1))
	}
	return c
}

// slowdown is the kernel's median time now over its time at the
// reference speed: 1.25 means the box is a quarter slower right now.
func (c *calibrator) slowdown() float64 {
	times := make([][]float64, len(c.kernels))
	var wg sync.WaitGroup
	for i, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < c.rounds; r++ {
				t0 := time.Now()
				k.run()
				times[i] = append(times[i], ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, ts := range times {
		all = append(all, ts...)
	}
	return median(all) / referenceMs
}
