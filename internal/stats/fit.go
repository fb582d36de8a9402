package stats

import (
	"errors"
	"math"
)

// LinearFit holds the result of an ordinary least-squares fit y = a + b*x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// FitLinear performs ordinary least squares on the paired observations.
// It is the "standard method of least squares" the SSABE algorithm uses to
// fit the error curve over subsample sizes (§3.2 of the paper); SSABE
// calls it through FitCVCurve below with a transformed regressor.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched fit input lengths")
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrShortInput
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate fit (constant x)")
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = sxy * sxy / (sxx * syy)
	}
	return LinearFit{Intercept: a, Slope: b, R2: r2}, nil
}

// CVCurve is the model SSABE fits to the measured (sample size, cv)
// points: cv(n) = a + b/√n. The 1/√n shape is the standard-error decay of
// i.i.d. estimators, so the fit linearises with regressor x = 1/√n.
type CVCurve struct {
	A  float64 // asymptotic floor of the error as n → ∞
	B  float64 // scale of the 1/√n term
	R2 float64
}

// FitCVCurve fits cv(n) = A + B/√n to the observed points by least squares
// on the transformed regressor 1/√n.
func FitCVCurve(ns []int, cvs []float64) (CVCurve, error) {
	if len(ns) != len(cvs) {
		return CVCurve{}, errors.New("stats: mismatched fit input lengths")
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		if n <= 0 {
			return CVCurve{}, errors.New("stats: sample sizes must be positive")
		}
		xs[i] = 1 / math.Sqrt(float64(n))
	}
	lf, err := FitLinear(xs, cvs)
	if err != nil {
		return CVCurve{}, err
	}
	return CVCurve{A: lf.Intercept, B: lf.Slope, R2: lf.R2}, nil
}

// SolveN returns the smallest sample size n whose modeled cv is at or
// below the target error sigma, i.e. it inverts the fitted curve — the step
// SSABE uses to choose the final sample size. ok is false when the fitted
// floor A already exceeds sigma (no finite n reaches the target) or the
// fitted slope is non-positive (error does not shrink with n).
func (c CVCurve) SolveN(sigma float64) (n int, ok bool) {
	if c.B <= 0 {
		// No measurable decay with n; only attainable if already below.
		if c.A <= sigma {
			return 1, true
		}
		return 0, false
	}
	if c.A >= sigma {
		return 0, false
	}
	root := c.B / (sigma - c.A) // √n at equality
	nf := math.Ceil(root * root)
	if nf < 1 {
		nf = 1
	}
	if nf > math.MaxInt32 {
		return 0, false
	}
	return int(nf), true
}

// TheoreticalSampleSize returns the normal-theory sample size needed to
// estimate a mean with coefficient-of-variation error sigma, given the
// population cv of the underlying data: n = (popCV/sigma)². Figure 8
// compares this textbook prediction against SSABE's empirical estimate.
func TheoreticalSampleSize(popCV, sigma float64) (int, error) {
	if sigma <= 0 {
		return 0, errors.New("stats: sigma must be positive")
	}
	if popCV <= 0 {
		return 1, nil
	}
	n := math.Ceil((popCV / sigma) * (popCV / sigma))
	return int(n), nil
}

// TheoreticalBootstraps returns the classical prescription B = 1/(2ε₀²)
// for the number of Monte-Carlo bootstrap resamples needed to approximate
// the ideal bootstrap to within ε₀ (§3 of the paper, citing Efron). EARL's
// point in Figure 8 is that this is usually far from the empirical need.
func TheoreticalBootstraps(eps0 float64) (int, error) {
	if eps0 <= 0 {
		return 0, errors.New("stats: eps0 must be positive")
	}
	return int(math.Ceil(1 / (2 * eps0 * eps0))), nil
}
