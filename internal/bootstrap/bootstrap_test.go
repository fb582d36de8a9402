package bootstrap

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

func testSample(n int, seed uint64) []float64 {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
	if err != nil {
		panic(err)
	}
	return xs
}

// exact enumerates every bootstrap resample of s as a multiset (the
// C(2n−1, n−1) resamples of §3) and returns the exactly-weighted result
// distribution moments — the truth the Monte-Carlo engine approximates.
// Only feasible for tiny n.
func exact(s []float64, f Statistic) (mean, variance float64, err error) {
	n := len(s)
	if n == 0 {
		return 0, 0, stats.ErrEmpty
	}
	if n > 12 {
		return 0, 0, fmt.Errorf("bootstrap: exact enumeration infeasible for n=%d", n)
	}
	// Enumerate multiset counts (c_1..c_n), Σc=n, weight n!/(Πc_i!)/nⁿ.
	logNFact := logFactorial(n)
	logNn := float64(n) * math.Log(float64(n))
	buf := make([]float64, 0, n)
	counts := make([]int, n)
	var m1, m2, wsum float64
	var rec func(idx, left int, logW float64) error
	rec = func(idx, left int, logW float64) error {
		if idx == n-1 {
			counts[idx] = left
			w := math.Exp(logW - logFactorial(left) - logNn)
			buf = buf[:0]
			for i, c := range counts {
				for j := 0; j < c; j++ {
					buf = append(buf, s[i])
				}
			}
			v, err := f(buf)
			if err != nil {
				return err
			}
			m1 += w * v
			m2 += w * v * v
			wsum += w
			return nil
		}
		for c := 0; c <= left; c++ {
			counts[idx] = c
			if err := rec(idx+1, left-c, logW-logFactorial(c)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, n, logNFact); err != nil {
		return 0, 0, err
	}
	// wsum is 1 up to floating point; normalise anyway.
	m1 /= wsum
	m2 /= wsum
	return m1, m2 - m1*m1, nil
}

func logFactorial(n int) float64 {
	lf := 0.0
	for i := 2; i <= n; i++ {
		lf += math.Log(float64(i))
	}
	return lf
}

func TestMonteCarloMeanStdErr(t *testing.T) {
	// For the mean, bootstrap stderr should approximate s/√n.
	rng := rand.New(rand.NewPCG(1, 2))
	s := testSample(400, 3)
	res, err := ParallelMonteCarlo(rng, s, Mean, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := stats.StdDev(s)
	want := sd / math.Sqrt(float64(len(s)))
	if math.Abs(res.StdErr-want)/want > 0.15 {
		t.Fatalf("bootstrap stderr %v, theory %v", res.StdErr, want)
	}
	m, _ := stats.Mean(s)
	if math.Abs(res.Estimate-m) > 3*want {
		t.Fatalf("bootstrap estimate %v far from sample mean %v", res.Estimate, m)
	}
	if len(res.Values) != 600 {
		t.Fatalf("got %d values", len(res.Values))
	}
}

func TestMonteCarloValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := ParallelMonteCarlo(rng, nil, Mean, 10, 1); err == nil {
		t.Fatal("empty sample should error")
	}
	if _, err := ParallelMonteCarlo(rng, []float64{1, 2}, Mean, 1, 1); err == nil {
		t.Fatal("B<2 should error")
	}
	bad := Statistic(func([]float64) (float64, error) { return 0, stats.ErrEmpty })
	if _, err := ParallelMonteCarlo(rng, []float64{1, 2}, bad, 5, 1); err == nil {
		t.Fatal("failing statistic should propagate")
	}
}

func TestMonteCarloMatchesExactSmallN(t *testing.T) {
	// On a tiny sample the Monte-Carlo estimate must converge to the
	// exactly-enumerated bootstrap moments.
	s := []float64{1, 3, 7, 9, 12, 15}
	exMean, exVar, err := exact(s, Mean)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	res, err := ParallelMonteCarlo(rng, s, Mean, 40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-exMean) > 0.05 {
		t.Fatalf("MC mean %v vs exact %v", res.Estimate, exMean)
	}
	if math.Abs(res.StdErr*res.StdErr-exVar)/exVar > 0.05 {
		t.Fatalf("MC var %v vs exact %v", res.StdErr*res.StdErr, exVar)
	}
}

func TestExactMeanKnownFormula(t *testing.T) {
	// For f = mean, the exact bootstrap mean is the sample mean and the
	// exact bootstrap variance is popVar/n.
	s := []float64{2, 4, 6, 8}
	m, v, err := exact(s, Mean)
	if err != nil {
		t.Fatal(err)
	}
	sm, _ := stats.Mean(s)
	sv, _ := stats.Variance(s)
	pv := sv * float64(len(s)-1) / float64(len(s)) // the population variance
	if math.Abs(m-sm) > 1e-9 {
		t.Fatalf("exact mean %v, want %v", m, sm)
	}
	want := pv / float64(len(s))
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("exact var %v, want %v", v, want)
	}
}

func TestExactRejectsLargeN(t *testing.T) {
	if _, _, err := exact(make([]float64, 13), Mean); err == nil {
		t.Fatal("large n should be rejected")
	}
	if _, _, err := exact(nil, Mean); err == nil {
		t.Fatal("empty should error")
	}
}

func TestJackknifeMeanMatchesClassicStdErr(t *testing.T) {
	// Jackknife stderr of the mean equals the classic s/√n exactly.
	s := testSample(100, 7)
	res, err := Jackknife(s, Mean)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := stats.StdDev(s)
	want := sd / math.Sqrt(float64(len(s)))
	if math.Abs(res.StdErr-want)/want > 1e-9 {
		t.Fatalf("jackknife stderr %v, want %v", res.StdErr, want)
	}
}

func TestJackknifeFailsForMedian(t *testing.T) {
	// The delete-1 jackknife is inconsistent for the median (Efron 1979,
	// the paper's argument for preferring the bootstrap, §3): with an
	// even-sized sample the leave-one-out medians collapse onto ~2
	// distinct values, so the stderr estimate depends on one random
	// order-statistic gap and never converges. Demonstrate both symptoms:
	// (a) degenerate value support, and (b) the jackknife/bootstrap
	// stderr ratio is erratic across datasets for the median while tight
	// for the mean.
	ratios := func(f Statistic) (min, max float64) {
		min, max = math.Inf(1), math.Inf(-1)
		for trial := 0; trial < 15; trial++ {
			s := testSample(200, uint64(900+trial))
			jack, err := Jackknife(s, f)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(trial), 13))
			boot, err := ParallelMonteCarlo(rng, s, f, 400, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := jack.StdErr / boot.StdErr
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		return min, max
	}

	s := testSample(200, 9)
	jack, err := Jackknife(s, Median)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, v := range jack.Values {
		distinct[v] = true
	}
	if len(distinct) > 3 {
		t.Fatalf("expected degenerate jackknife median values, got %d distinct", len(distinct))
	}

	minMean, maxMean := ratios(Mean)
	minMed, maxMed := ratios(Median)
	if maxMean/minMean > 1.5 {
		t.Fatalf("jackknife/bootstrap ratio for the mean should be stable, got [%v,%v]", minMean, maxMean)
	}
	if maxMed/minMed < 2 {
		t.Fatalf("jackknife/bootstrap ratio for the median should be erratic, got [%v,%v]", minMed, maxMed)
	}
}

func TestJackknifeShortInput(t *testing.T) {
	if _, err := Jackknife([]float64{1}, Mean); err == nil {
		t.Fatal("n=1 should error")
	}
}

func TestPercentileCI(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	s := testSample(300, 23)
	res, err := ParallelMonteCarlo(rng, s, Mean, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := res.PercentileCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < res.Estimate && res.Estimate < hi) {
		t.Fatalf("CI [%v,%v] does not bracket estimate %v", lo, hi, res.Estimate)
	}
	// ≈95% of the distribution lies inside.
	in := 0
	for _, v := range res.Values {
		if v >= lo && v <= hi {
			in++
		}
	}
	frac := float64(in) / float64(len(res.Values))
	if frac < 0.93 || frac > 0.97 {
		t.Fatalf("CI covers %v of distribution, want ≈0.95", frac)
	}
	if _, _, err := res.PercentileCI(1.5); err == nil {
		t.Fatal("bad confidence should error")
	}
}

func TestMovingBlockPreservesDependence(t *testing.T) {
	// For positively autocorrelated AR(1) data, the i.i.d. bootstrap
	// understates the stderr of the mean; the moving-block bootstrap
	// must give a distinctly larger (more honest) estimate.
	xs, err := workload.AR1Spec{Phi: 0.85, Sigma: 1, Mu: 0, N: 4000, Seed: 31}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewPCG(1, 2))
	rngB := rand.New(rand.NewPCG(3, 4))
	iid, err := ParallelMonteCarlo(rngA, xs, Mean, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := ParallelMovingBlock(rngB, xs, AutoBlockLength(len(xs))*4, Mean, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.StdErr < 1.5*iid.StdErr {
		t.Fatalf("block stderr %v should exceed iid %v by a wide margin", blk.StdErr, iid.StdErr)
	}
}

func TestMovingBlockValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := ParallelMovingBlock(rng, nil, 1, Mean, 10, 1); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := ParallelMovingBlock(rng, []float64{1, 2}, 0, Mean, 10, 1); err == nil {
		t.Fatal("blockLen 0 should error")
	}
	if _, err := ParallelMovingBlock(rng, []float64{1, 2}, 3, Mean, 10, 1); err == nil {
		t.Fatal("blockLen > n should error")
	}
	if _, err := ParallelMovingBlock(rng, []float64{1, 2}, 1, Mean, 1, 1); err == nil {
		t.Fatal("B < 2 should error")
	}
}

func TestAutoBlockLength(t *testing.T) {
	if AutoBlockLength(0) != 1 || AutoBlockLength(1) != 1 {
		t.Fatal("degenerate lengths")
	}
	if got := AutoBlockLength(1000); got != 10 {
		t.Fatalf("AutoBlockLength(1000) = %d, want 10", got)
	}
	if got := AutoBlockLength(2); got > 2 {
		t.Fatalf("block length %d exceeds n", got)
	}
}

func TestProportion(t *testing.T) {
	xs := []float64{1, 0, 1, 1, 0, 1, 0, 1, 1, 1}
	p, hw, err := Proportion(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.7 {
		t.Fatalf("p = %v", p)
	}
	if hw <= 0 || hw > 0.5 {
		t.Fatalf("halfWidth = %v", hw)
	}
	if _, _, err := Proportion([]float64{0.5}, 0.95); err == nil {
		t.Fatal("non-binary data should error")
	}
	if _, _, err := Proportion(nil, 0.95); err == nil {
		t.Fatal("empty should error")
	}
}

func TestResamplePropertyElementsFromSource(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		s := testSample(30, seed)
		out := make([]float64, 30)
		resample(rng, s, out)
		valid := map[float64]bool{}
		for _, x := range s {
			valid[x] = true
		}
		for _, x := range out {
			if !valid[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCVDecreasesWithN(t *testing.T) {
	// The Fig. 2b behaviour: larger n ⇒ lower cv, here asserted
	// monotonically over a 4× range on averaged trials.
	avgCV := func(n int) float64 {
		var total float64
		const reps = 8
		for r := 0; r < reps; r++ {
			s := testSample(n, uint64(1000+r))
			rng := rand.New(rand.NewPCG(uint64(n), uint64(r)))
			res, err := ParallelMonteCarlo(rng, s, Mean, 60, 1)
			if err != nil {
				t.Fatal(err)
			}
			total += res.CV
		}
		return total / reps
	}
	small := avgCV(100)
	large := avgCV(1600)
	if large >= small/2 {
		t.Fatalf("cv(1600)=%v should be well under cv(100)=%v", large, small)
	}
}
