package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestSumKahan(t *testing.T) {
	// A classic catastrophic-cancellation pattern: naive summation loses
	// the small terms; Kahan keeps them.
	xs := make([]float64, 0, 2002)
	xs = append(xs, 1e16)
	for i := 0; i < 2000; i++ {
		xs = append(xs, 1)
	}
	xs = append(xs, -1e16)
	if got := Sum(xs); got != 2000 {
		t.Fatalf("Sum = %v, want 2000", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMeanSimple(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %v, %v; want 2.5, nil", m, err)
	}
}

func TestVariance(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestVarianceShort(t *testing.T) {
	if _, err := Variance([]float64{1}); !errors.Is(err, ErrShortInput) {
		t.Fatalf("err = %v, want ErrShortInput", err)
	}
}

func TestPopVariance(t *testing.T) {
	v, err := PopVariance([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 1.25, 1e-12) {
		t.Fatalf("PopVariance = %v, want 1.25", v)
	}
	if v1, _ := PopVariance([]float64{42}); v1 != 0 {
		t.Fatalf("PopVariance singleton = %v, want 0", v1)
	}
}

func TestCV(t *testing.T) {
	cv, err := CV([]float64{10, 10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cv != 0 {
		t.Fatalf("cv of constant data = %v, want 0", cv)
	}
	if _, err := CV([]float64{-1, 1}); err == nil {
		t.Fatal("cv with zero mean should error")
	}
}

func TestMedianOddEven(t *testing.T) {
	m, _ := Median([]float64{5, 1, 3})
	if m != 3 {
		t.Fatalf("odd median = %v, want 3", m)
	}
	m, _ = Median([]float64{4, 1, 3, 2})
	if m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 5 {
		t.Fatalf("q0=%v q1=%v, want 1 and 5", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range quantile should error")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty quantile should return ErrEmpty")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	q, _ := Quantile(xs, 0.25)
	if !almostEqual(q, 2.5, 1e-12) {
		t.Fatalf("q(0.25) = %v, want 2.5", q)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	m, _ := Mean(xs)
	v, _ := Variance(xs)
	if !almostEqual(w.Mean(), m, 1e-10) {
		t.Fatalf("welford mean %v vs batch %v", w.Mean(), m)
	}
	if !almostEqual(w.Variance(), v, 1e-10) {
		t.Fatalf("welford var %v vs batch %v", w.Variance(), v)
	}
	if w.N() != 500 {
		t.Fatalf("welford n = %d", w.N())
	}
	if !almostEqual(w.Sum(), Sum(xs), 1e-9) {
		t.Fatalf("welford sum %v vs batch %v", w.Sum(), Sum(xs))
	}
}

func TestWelfordMergeEquivalence(t *testing.T) {
	// Property: merging two accumulators equals accumulating the
	// concatenated stream. Exercised via testing/quick.
	f := func(as, bs []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		as, bs = clean(as), clean(bs)
		var wa, wb, wall Welford
		for _, x := range as {
			wa.Add(x)
			wall.Add(x)
		}
		for _, x := range bs {
			wb.Add(x)
			wall.Add(x)
		}
		wa.Merge(wb)
		return wa.N() == wall.N() &&
			almostEqual(wa.Mean(), wall.Mean(), 1e-8) &&
			almostEqual(wa.Variance(), wall.Variance(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordRemoveInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var w Welford
	base := make([]float64, 50)
	for i := range base {
		base[i] = rng.Float64() * 100
		w.Add(base[i])
	}
	extra := []float64{math.Pi, -2.5, 1e3}
	for _, x := range extra {
		w.Add(x)
	}
	for i := len(extra) - 1; i >= 0; i-- {
		w.Remove(extra[i])
	}
	m, _ := Mean(base)
	v, _ := Variance(base)
	if !almostEqual(w.Mean(), m, 1e-8) || !almostEqual(w.Variance(), v, 1e-6) {
		t.Fatalf("remove did not invert add: mean %v vs %v, var %v vs %v",
			w.Mean(), m, w.Variance(), v)
	}
}

func TestWelfordRemoveToEmpty(t *testing.T) {
	var w Welford
	w.Add(5)
	w.Remove(5)
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatalf("remove-to-empty left state %+v", w)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Fatalf("merge with empty changed state")
	}
	b.Merge(a) // merging into empty copies
	if b != a {
		t.Fatalf("merge into empty did not copy")
	}
}

// TestAddLanesEqualsAdd: for any lane count — below, at and above the
// kernel width — and ragged or empty batches, every accumulator ends
// exactly where sequential Adds leave it.
func TestAddLanesEqualsAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for lanes := 1; lanes <= 2*WelfordLanes+1; lanes++ {
		for _, ragged := range []bool{false, true} {
			got := make([]*Welford, lanes)
			want := make([]Welford, lanes)
			batches := make([][]float64, lanes)
			for k := range got {
				n := 100
				if ragged {
					n = rng.IntN(120) // 0 included
				}
				batches[k] = make([]float64, n)
				for i := range batches[k] {
					batches[k][i] = rng.NormFloat64()*15 + 50
				}
				want[k].Add(float64(k))
				got[k] = &Welford{}
				got[k].Add(float64(k))
				for _, x := range batches[k] {
					want[k].Add(x)
				}
			}
			AddLanes(got, batches)
			for k := range got {
				if *got[k] != want[k] {
					t.Fatalf("lanes=%d ragged=%v lane %d: %+v, sequential Add gives %+v", lanes, ragged, k, *got[k], want[k])
				}
			}
		}
	}
}
