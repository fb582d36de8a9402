package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	for _, p := range []int{0, -1} {
		if got := Workers(p); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("Workers(%d) = %d, want GOMAXPROCS", p, got)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 4, 100} {
		var hits [37]atomic.Int32
		if err := ForEach(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachReturnsFirstErrorInIndexOrder(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("err-%d", i) }
	for _, workers := range []int{1, 8} {
		err := ForEach(50, workers, func(i int) error {
			if i == 7 || i == 31 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "err-7" {
			t.Fatalf("workers=%d: got %v, want err-7", workers, err)
		}
	}
}

func TestForEachWorkerPerWorkerState(t *testing.T) {
	var factories atomic.Int32
	const workers = 4
	if err := ForEachWorker(64, workers, func() func(int) error {
		factories.Add(1)
		buf := make([]int, 0, 8) // worker-owned scratch must not race
		return func(i int) error {
			buf = append(buf[:0], i)
			return nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := factories.Load(); n != workers {
		t.Fatalf("factory called %d times, want %d", n, workers)
	}
}

func TestForEachSequentialShortCircuits(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := ForEach(100, 1, func(i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("err=%v calls=%d, want boom after 4 calls", err, calls)
	}
}
