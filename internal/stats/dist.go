package stats

import (
	"errors"
	"math"
	"math/rand/v2"
)

// NormalQuantile returns the p-th quantile of the standard normal
// distribution (the probit function), using the Acklam rational
// approximation, accurate to about 1.15e-9 over (0,1). It is used for
// z-test confidence intervals on categorical proportions (Appendix A of
// the paper) and for the BCa bootstrap interval.
func NormalQuantile(p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, errors.New("stats: normal quantile requires 0 < p < 1")
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step using the normal CDF for full precision.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x, nil
}

// NormalCDF returns P(Z ≤ x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Binomial draws one variate from Binomial(n, p) using rng. For the large
// n the delta-maintenance path sees, it switches to the Gaussian
// approximation N(np, np(1-p)) that Eq. 3 of the paper justifies via the
// 3-sigma rule; for small n it uses exact Bernoulli summation.
func Binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exact for small n: the loop is cheap and avoids approximation error
	// exactly where the Gaussian is weakest.
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mu := float64(n) * p
	sigma := math.Sqrt(mu * (1 - p))
	k := int(math.Round(rng.NormFloat64()*sigma + mu))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// BinomialExact draws one variate from Binomial(n, p) by Bernoulli
// summation regardless of n. It exists so tests can compare the
// approximation used by Binomial against ground truth.
func BinomialExact(rng *rand.Rand, n int, p float64) int {
	k := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			k++
		}
	}
	return k
}

// ProportionInterval returns the normal-approximation (Wald) confidence
// interval for a binomial proportion: the estimate successes/n and its
// half-width at the given confidence level. This is the z-test machinery
// Appendix A prescribes for categorical data.
func ProportionInterval(successes, n int, confidence float64) (p, halfWidth float64, err error) {
	if n <= 0 {
		return 0, 0, ErrEmpty
	}
	if successes < 0 || successes > n {
		return 0, 0, errors.New("stats: successes out of range")
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("stats: confidence must be in (0,1)")
	}
	p = float64(successes) / float64(n)
	z, err := NormalQuantile(0.5 + confidence/2)
	if err != nil {
		return 0, 0, err
	}
	halfWidth = z * math.Sqrt(p*(1-p)/float64(n))
	return p, halfWidth, nil
}
