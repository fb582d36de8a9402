package stats

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	f, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Intercept, 3, 1e-10) || !almostEqual(f.Slope, 2, 1e-10) {
		t.Fatalf("fit = %+v, want a=3 b=2", f)
	}
	if !almostEqual(f.R2, 1, 1e-10) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); !errors.Is(err, ErrShortInput) {
		t.Fatalf("short input err = %v", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x should error")
	}
}

func TestFitCVCurveRecoversParameters(t *testing.T) {
	// Generate points from cv(n) = 0.01 + 0.9/√n with mild noise and check
	// the fit recovers the parameters well enough to invert.
	rng := rand.New(rand.NewPCG(21, 22))
	ns := []int{16, 32, 64, 128, 256, 512, 1024}
	cvs := make([]float64, len(ns))
	for i, n := range ns {
		cvs[i] = 0.01 + 0.9/math.Sqrt(float64(n)) + rng.NormFloat64()*1e-4
	}
	c, err := FitCVCurve(ns, cvs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.A-0.01) > 0.005 || math.Abs(c.B-0.9) > 0.05 {
		t.Fatalf("fit = %+v, want A≈0.01 B≈0.9", c)
	}
	// SolveN must return an n at which the curve is below sigma.
	n, ok := c.SolveN(0.05)
	if !ok {
		t.Fatal("SolveN failed")
	}
	// The modeled cv at n is A + B/√n.
	eval := func(n int) float64 { return c.A + c.B/math.Sqrt(float64(n)) }
	if got := eval(n); got > 0.05+1e-9 {
		t.Fatalf("cv(SolveN) = %v > sigma", got)
	}
	// And n-1 should be above sigma (minimality), allowing rounding slack.
	if n > 2 {
		if got := eval(n - 2); got < 0.05-1e-6 {
			t.Fatalf("SolveN not minimal: cv(%d) = %v", n-2, got)
		}
	}
}

func TestFitCVCurveRejectsBadSizes(t *testing.T) {
	if _, err := FitCVCurve([]int{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("non-positive n should error")
	}
	if _, err := FitCVCurve([]int{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
}

func TestSolveNUnreachable(t *testing.T) {
	c := CVCurve{A: 0.2, B: 0.5}
	if _, ok := c.SolveN(0.1); ok {
		t.Fatal("floor above sigma must be unreachable")
	}
	flat := CVCurve{A: 0.01, B: -0.1}
	if n, ok := flat.SolveN(0.05); !ok || n != 1 {
		t.Fatalf("negative slope below sigma should give n=1, got %d,%v", n, ok)
	}
	flat2 := CVCurve{A: 0.5, B: 0}
	if _, ok := flat2.SolveN(0.05); ok {
		t.Fatal("flat curve above sigma must be unreachable")
	}
}

func TestTheoreticalSampleSize(t *testing.T) {
	n, err := TheoreticalSampleSize(1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if n != 400 {
		t.Fatalf("n = %d, want 400", n)
	}
	if _, err := TheoreticalSampleSize(1, 0); err == nil {
		t.Fatal("sigma=0 should error")
	}
	if n, _ := TheoreticalSampleSize(0, 0.05); n != 1 {
		t.Fatalf("zero popCV should need n=1, got %d", n)
	}
}

func TestTheoreticalBootstraps(t *testing.T) {
	b, err := TheoreticalBootstraps(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if b != 200 {
		t.Fatalf("B = %d, want 200", b)
	}
	if _, err := TheoreticalBootstraps(0); err == nil {
		t.Fatal("eps0=0 should error")
	}
}
