package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.995, 2.5758293035489004},
		{0.8413447460685429, 1.0},
	}
	for _, c := range cases {
		got, err := NormalQuantile(c.p)
		if err != nil {
			t.Fatalf("NormalQuantile(%v): %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-8) && math.Abs(got-c.want) > 1e-8 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NormalQuantile(p); err == nil {
			t.Errorf("NormalQuantile(%v) should error", p)
		}
	}
}

func TestNormalQuantileCDFRoundTrip(t *testing.T) {
	for p := 0.001; p < 1; p += 0.0137 {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		back := NormalCDF(z)
		if math.Abs(back-p) > 1e-9 {
			t.Fatalf("roundtrip p=%v → z=%v → %v", p, z, back)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	const n, p, trials = 200, 0.3, 20000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		k := float64(Binomial(rng, n, p))
		sum += k
		sumsq += k * k
	}
	mean := sum / trials
	varr := sumsq/trials - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	if math.Abs(mean-wantMean) > 0.5 {
		t.Fatalf("binomial mean %v, want ≈%v", mean, wantMean)
	}
	if math.Abs(varr-wantVar)/wantVar > 0.1 {
		t.Fatalf("binomial var %v, want ≈%v", varr, wantVar)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if Binomial(rng, 0, 0.5) != 0 {
		t.Fatal("n=0 should give 0")
	}
	if Binomial(rng, 10, 0) != 0 {
		t.Fatal("p=0 should give 0")
	}
	if Binomial(rng, 10, 1) != 10 {
		t.Fatal("p=1 should give n")
	}
	for i := 0; i < 1000; i++ {
		k := Binomial(rng, 100, 0.99)
		if k < 0 || k > 100 {
			t.Fatalf("binomial out of range: %d", k)
		}
	}
}

func TestBinomialApproxMatchesExact(t *testing.T) {
	// Compare the Gaussian-approximated sampler against exact Bernoulli
	// summation at a size where the approximation is active (n > 64).
	rngA := rand.New(rand.NewPCG(5, 6))
	rngB := rand.New(rand.NewPCG(7, 8))
	const n, p, trials = 500, 0.8, 8000
	var meanA, meanB float64
	for i := 0; i < trials; i++ {
		meanA += float64(Binomial(rngA, n, p))
		meanB += float64(BinomialExact(rngB, n, p))
	}
	meanA /= trials
	meanB /= trials
	if math.Abs(meanA-meanB) > 1.0 {
		t.Fatalf("approx mean %v vs exact %v", meanA, meanB)
	}
}

func TestProportionInterval(t *testing.T) {
	p, hw, err := ProportionInterval(30, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.3 {
		t.Fatalf("p = %v, want 0.3", p)
	}
	want := 1.959963984540054 * math.Sqrt(0.3*0.7/100)
	if math.Abs(hw-want) > 1e-9 {
		t.Fatalf("halfWidth = %v, want %v", hw, want)
	}
}

func TestProportionIntervalErrors(t *testing.T) {
	if _, _, err := ProportionInterval(1, 0, 0.95); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, _, err := ProportionInterval(-1, 10, 0.95); err == nil {
		t.Fatal("negative successes should error")
	}
	if _, _, err := ProportionInterval(11, 10, 0.95); err == nil {
		t.Fatal("successes > n should error")
	}
	if _, _, err := ProportionInterval(5, 10, 1.0); err == nil {
		t.Fatal("confidence=1 should error")
	}
}
