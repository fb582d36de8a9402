// Package pool is the tiny worker-pool primitive shared by the parallel
// resampling engines (internal/bootstrap, internal/delta). It only
// schedules: determinism is the caller's job, achieved by keying rng
// streams to the work index — never to the worker — so results are
// identical at any worker count. It also holds the scratch and spare
// storage those engines and the scan layer reuse (Floats, Spares).
package pool

import (
	"runtime"
	"sync"
)

// Workers resolves a parallelism request: p itself when positive,
// otherwise runtime.GOMAXPROCS(0). This is the one shared definition of
// the "0 means all cores" convention every Parallelism knob documents.
func Workers(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// Floats is a reusable float64 scratch buffer for per-worker hot loops:
// Take returns a zero-length slice with at least the requested capacity,
// reusing the previous backing array whenever it is large enough. One
// Floats per worker goroutine (via ForEachWorker's per-worker state)
// turns a make-per-item/per-task allocation pattern into amortised-zero
// steady-state allocation. Not safe for concurrent use; each worker owns
// its own.
type Floats struct{ buf []float64 }

// Take returns f's buffer with length 0 and capacity ≥ n. The returned
// slice is only valid until the next Take.
func (f *Floats) Take(n int) []float64 {
	if cap(f.buf) < n {
		f.buf = make([]float64, 0, n+n/4)
	}
	return f.buf[:0]
}

// ForEach runs fn(i) for every i in [0, n) across the given number of
// workers (sequentially when workers ≤ 1) and returns the first error
// in index order, so error identity does not depend on scheduling.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachWorker(n, workers, func() func(int) error { return fn })
}

// ForEachWorker is ForEach for work that needs per-worker scratch state
// (resample buffers): newFn is invoked once per worker goroutine and the
// returned closure handles that worker's share of indices.
func ForEachWorker(n, workers int, newFn func() func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn := newFn()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newFn()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
