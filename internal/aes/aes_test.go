package aes

import (
	"testing"

	"repro/internal/jobs"
	"repro/internal/stats"
	"repro/internal/workload"
)

func pilotData(n int, seed uint64) []float64 {
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
	if err != nil {
		panic(err)
	}
	return xs
}

func baseConfig() Config {
	return Config{
		Reducer: plainReducer{jobs.Mean().Reducer},
		Sigma:   0.05,
		Seed:    7,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := EstimateB(pilotData(100, 1), Config{Sigma: 0.05}); err == nil {
		t.Fatal("missing reducer should error")
	}
	bad := baseConfig()
	bad.Sigma = 0
	if _, _, err := EstimateB(pilotData(100, 1), bad); err == nil {
		t.Fatal("sigma=0 should error")
	}
	bad = baseConfig()
	bad.Tau = -1
	if _, _, err := EstimateB(pilotData(100, 1), bad); err == nil {
		t.Fatal("negative tau should error")
	}
	if _, _, err := EstimateB([]float64{1}, baseConfig()); err == nil {
		t.Fatal("tiny pilot should error")
	}
}

func TestEstimateBReasonableRange(t *testing.T) {
	// The paper: "Normally roughly 30 bootstraps are required to provide
	// a confident estimate of the error" (§3.1), far below the
	// theoretical 1/(2ε₀²). Accept a broad band around that.
	b, trace, err := EstimateB(pilotData(500, 3), baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b < 5 || b > 80 {
		t.Fatalf("B = %d, want in the tens", b)
	}
	if len(trace) != b-1 {
		t.Fatalf("trace length %d for B=%d", len(trace), b)
	}
	theory, _ := stats.TheoreticalBootstraps(0.03)
	if b >= theory {
		t.Fatalf("empirical B=%d should be far below theoretical %d", b, theory)
	}
}

func TestEstimateBDeterministic(t *testing.T) {
	b1, _, err := EstimateB(pilotData(300, 4), baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := EstimateB(pilotData(300, 4), baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatalf("same seed gave B=%d and B=%d", b1, b2)
	}
}

func TestEstimateBRespectsMaxB(t *testing.T) {
	cfg := baseConfig()
	cfg.Tau = 1e-9 // unreachable stability
	cfg.MaxB = 20
	b, _, err := EstimateB(pilotData(200, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b != 20 {
		t.Fatalf("B = %d, want MaxB=20", b)
	}
}

func TestEstimateNFindsTarget(t *testing.T) {
	cfg := baseConfig()
	pilot := pilotData(4000, 6)
	n, ok, curve, points, err := EstimateN(pilot, 30, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("no n found; curve %+v points %+v", curve, points)
	}
	if len(points) != 5 {
		t.Fatalf("got %d curve points, want L=5", len(points))
	}
	// Gaussian(50,15): popCV = 0.3, so n ≈ (0.3/0.05)² = 36 for σ=0.05.
	if n < 10 || n > 400 {
		t.Fatalf("n = %d, want near the theoretical ≈36", n)
	}
	// Verify empirically: a sample of size n should deliver cv ≤ ~σ.
	val := curve.Eval(n)
	if val > cfg.Sigma+1e-9 {
		t.Fatalf("curve at solved n: %v > σ", val)
	}
}

func TestEstimateNValidation(t *testing.T) {
	cfg := baseConfig()
	if _, _, _, _, err := EstimateN(pilotData(10, 1), 30, cfg); err == nil {
		t.Fatal("pilot too small should error")
	}
	if _, _, _, _, err := EstimateN(pilotData(4000, 1), 1, cfg); err == nil {
		t.Fatal("B=1 should error")
	}
}

func TestSSABEPlanSamplePath(t *testing.T) {
	cfg := baseConfig()
	plan, err := SSABE(pilotData(4000, 8), 10_000_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseFull {
		t.Fatalf("expected sampling plan, got full run: %+v", plan)
	}
	if plan.B < 5 || plan.N < 1 {
		t.Fatalf("degenerate plan %+v", plan)
	}
	if int64(plan.B)*int64(plan.N) >= 10_000_000 {
		t.Fatalf("plan exceeds cutoff: %+v", plan)
	}
}

func TestSSABEFallsBackToFullRun(t *testing.T) {
	cfg := baseConfig()
	// A tiny "full" data set: sampling cannot possibly pay off.
	plan, err := SSABE(pilotData(4000, 9), 100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UseFull {
		t.Fatalf("expected full-run fallback, got %+v", plan)
	}
}

func TestSSABEUnreachableSigma(t *testing.T) {
	cfg := baseConfig()
	cfg.Sigma = 1e-12 // unreachable by any n the curve can model
	plan, err := SSABE(pilotData(4000, 10), 1_000_000_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.UseFull {
		t.Fatalf("unreachable sigma must fall back to full run, got %+v", plan)
	}
}

func TestPaperHeadlineMeanNeedsOnePercentAnd30(t *testing.T) {
	// §6.4: "In the case of the sample mean … for a 5% error threshold, a
	// 1% uniform sample and 30 bootstraps are required." Reproduce the
	// spirit: for a 1M-record uniform data set, SSABE's B lands in the
	// tens and N is ≲1% of the data.
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 20000, Seed: 11}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	plan, err := SSABE(xs[:4000], 1_000_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UseFull {
		t.Fatalf("expected sampling plan: %+v", plan)
	}
	if plan.B < 5 || plan.B > 80 {
		t.Fatalf("B = %d, want tens", plan.B)
	}
	if plan.N > 10000 { // 1% of 1M
		t.Fatalf("N = %d, want ≤ 1%% of 1M", plan.N)
	}
}
