package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestNumericDeterminism(t *testing.T) {
	spec := NumericSpec{Dist: Uniform, N: 1000, Seed: 7}
	a, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	spec.Seed = 8
	c, _ := spec.Generate()
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds produced %d/%d identical values", same, len(a))
	}
}

func TestNumericDistributions(t *testing.T) {
	for _, d := range []Dist{Uniform, Gaussian, Zipf, Pareto} {
		xs, err := NumericSpec{Dist: d, N: 5000, Seed: 1}.Generate()
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if len(xs) != 5000 {
			t.Fatalf("%s: got %d values", d, len(xs))
		}
		var sum float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s produced non-finite value", d)
			}
			sum += x
		}
		if sum == 0 {
			t.Fatalf("%s produced all zeros", d)
		}
	}
}

func TestNumericMoments(t *testing.T) {
	xs, _ := NumericSpec{Dist: Uniform, N: 200000, Seed: 3}.Generate()
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if math.Abs(mean-50) > 0.5 {
		t.Fatalf("uniform mean = %v, want ≈50", mean)
	}
	gs, _ := NumericSpec{Dist: Gaussian, N: 200000, Seed: 3}.Generate()
	sum = 0
	for _, x := range gs {
		sum += x
	}
	mean = sum / float64(len(gs))
	if math.Abs(mean-50) > 0.5 {
		t.Fatalf("gaussian mean = %v, want ≈50", mean)
	}
}

func TestNumericErrors(t *testing.T) {
	if _, err := (NumericSpec{Dist: "bogus", N: 1}).Generate(); err == nil {
		t.Fatal("unknown distribution should error")
	}
	if _, err := (NumericSpec{Dist: Uniform, N: -1}).Generate(); err == nil {
		t.Fatal("negative N should error")
	}
}

func TestClusteredLayoutIsSorted(t *testing.T) {
	xs, err := NumericSpec{Dist: Uniform, N: 2000, Seed: 5, Clustered: true}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Fatalf("clustered layout not sorted at %d", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		xs, err := NumericSpec{Dist: Gaussian, N: 100, Seed: seed}.Generate()
		if err != nil {
			return false
		}
		lines := strings.Split(strings.TrimSuffix(string(EncodeLines(xs)), "\n"), "\n")
		if len(lines) != len(xs) {
			return false
		}
		for i, l := range lines {
			v, err := DecodeLine(l)
			if err != nil || v != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeLineErrors(t *testing.T) {
	if _, err := DecodeLine("not-a-number"); err == nil {
		t.Fatal("garbage should error")
	}
	v, err := DecodeLine("  3.5 \n")
	if err != nil || v != 3.5 {
		t.Fatalf("trimmed decode = %v, %v", v, err)
	}
}

func TestAR1Stationarity(t *testing.T) {
	spec := AR1Spec{Phi: 0.8, Sigma: 1, Mu: 10, N: 100000, Seed: 9}
	xs, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("AR1 mean = %v, want ≈10", mean)
	}
	// Lag-1 autocorrelation should be ≈ phi.
	var num, den float64
	for i := 1; i < len(xs); i++ {
		num += (xs[i] - mean) * (xs[i-1] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if rho := num / den; math.Abs(rho-0.8) > 0.05 {
		t.Fatalf("AR1 lag-1 autocorr = %v, want ≈0.8", rho)
	}
}

func TestAR1RejectsNonStationary(t *testing.T) {
	if _, err := (AR1Spec{Phi: 1.0, N: 10}).Generate(); err == nil {
		t.Fatal("phi=1 should error")
	}
}

func TestCategoricalProportion(t *testing.T) {
	xs, err := CategoricalSpec{P: 0.3, N: 100000, Seed: 4}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var ones float64
	for _, x := range xs {
		if x != 0 && x != 1 {
			t.Fatalf("categorical value %v not in {0,1}", x)
		}
		ones += x
	}
	if p := ones / float64(len(xs)); math.Abs(p-0.3) > 0.01 {
		t.Fatalf("proportion = %v, want ≈0.3", p)
	}
}

func TestCategoricalErrors(t *testing.T) {
	if _, err := (CategoricalSpec{P: 1.5, N: 10}).Generate(); err == nil {
		t.Fatal("P > 1 should error")
	}
}

func TestMixtureGeneration(t *testing.T) {
	pts, centers, err := MixtureSpec{K: 3, Dim: 2, N: 3000, Spread: 0.5, Sep: 100, Seed: 11}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3000 || len(centers) != 3 {
		t.Fatalf("got %d points %d centers", len(pts), len(centers))
	}
	// Every point should be near one of the true centers (well-separated).
	for _, p := range pts {
		best := math.Inf(1)
		for _, c := range centers {
			var d2 float64
			for dim := range p {
				d := p[dim] - c[dim]
				d2 += d * d
			}
			if d2 < best {
				best = d2
			}
		}
		if math.Sqrt(best) > 10*0.5 {
			t.Fatalf("point %v is %v away from all centers", p, math.Sqrt(best))
		}
	}
}

func TestMixtureErrors(t *testing.T) {
	if _, _, err := (MixtureSpec{K: 0, Dim: 2, N: 10}).Generate(); err == nil {
		t.Fatal("K=0 should error")
	}
}

func TestPointCodec(t *testing.T) {
	pts := []Point{{1, 2.5, -3}, {0.125, 7, 9}}
	enc := EncodePoints(pts)
	lines := strings.Split(strings.TrimSuffix(string(enc), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("encoded %d lines", len(lines))
	}
	for i, l := range lines {
		p, err := DecodePoint(l)
		if err != nil {
			t.Fatal(err)
		}
		for d := range p {
			if p[d] != pts[i][d] {
				t.Fatalf("roundtrip mismatch at %d,%d", i, d)
			}
		}
	}
	if _, err := DecodePoint("1,x,3"); err == nil {
		t.Fatal("bad coordinate should error")
	}
	if _, err := DecodePoint(""); err == nil {
		t.Fatal("empty record should error")
	}
}

func TestKVGeneration(t *testing.T) {
	recs, err := KVSpec{Keys: 10, N: 1000, Seed: 13}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range recs {
		parts := strings.SplitN(r, "\t", 2)
		if len(parts) != 2 {
			t.Fatalf("record %q not key\\tvalue", r)
		}
		keys[parts[0]] = true
	}
	if len(keys) > 10 {
		t.Fatalf("got %d distinct keys, want ≤10", len(keys))
	}
	if len(keys) < 8 {
		t.Fatalf("got %d distinct keys, want close to 10", len(keys))
	}
	if _, err := (KVSpec{Keys: 0, N: 5}).Generate(); err == nil {
		t.Fatal("Keys=0 should error")
	}
}

func TestEncodeStrings(t *testing.T) {
	b := EncodeStrings([]string{"a", "b"})
	if string(b) != "a\nb\n" {
		t.Fatalf("EncodeStrings = %q", b)
	}
}

func TestEncodeLinesFixedWidth(t *testing.T) {
	xs, _ := NumericSpec{Dist: Pareto, N: 500, Seed: 2}.Generate()
	xs = append(xs, 0, -3.25, 1e-12, 9.9e20)
	enc := EncodeLinesFixed(xs)
	lines := strings.Split(strings.TrimSuffix(string(enc), "\n"), "\n")
	if len(lines) != len(xs) {
		t.Fatalf("got %d lines", len(lines))
	}
	for i, l := range lines {
		if len(l) != len(lines[0]) {
			t.Fatalf("line %d width %d != %d", i, len(l), len(lines[0]))
		}
		v, err := DecodeLine(l)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(v - xs[i])
		if xs[i] != 0 {
			rel /= math.Abs(xs[i])
		}
		if rel > 1e-9 {
			t.Fatalf("line %d decoded %v, want %v", i, v, xs[i])
		}
	}
}

// TestEncodeLinesFixedMatchesFmt holds the hand-padded encoder to the
// fmt verb it replaced, byte for byte: both zeros, negatives, subnormals,
// two- and three-digit exponents either way, the largest and smallest
// finite values, values that round up into a new exponent, the
// non-finite three, and a random sweep of bit patterns.
func TestEncodeLinesFixedMatchesFmt(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, -3.25, 12.3456789, 9.9999999995, -9.9999999995, 999999999.95,
		1e-12, -1e-12, 9.9e20, 1e99, 1e100, -1e100, 1e-99, 1e-100, -1e-100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4e-310,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	var want bytes.Buffer
	for _, x := range xs {
		fmt.Fprintf(&want, "%018.9e\n", x)
	}
	got := EncodeLinesFixed(xs)
	if !bytes.Equal(got, want.Bytes()) {
		gl, wl := bytes.Split(got, []byte{'\n'}), bytes.Split(want.Bytes(), []byte{'\n'})
		for i := range wl {
			if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("value %d (%v): encoded %q, fmt gives %q", i, xs[i], gl[i], wl[i])
			}
		}
		t.Fatalf("encoded %d bytes, fmt gives %d", len(got), want.Len())
	}
	if len(got) != 19*len(xs) {
		t.Fatalf("%d bytes for %d values: not 19 each", len(got), len(xs))
	}
}
