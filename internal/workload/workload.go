// Package workload generates the synthetic datasets used throughout the
// EARL reproduction. The paper's evaluation (§6) runs on synthetic data so
// that the true answer is known and the reported error can be validated;
// this package provides deterministic, seeded equivalents: numeric
// distributions (uniform, Gaussian, Zipf, Pareto), on-disk layouts
// (shuffled vs clustered, which matters for block-sampling baselines),
// AR(1) time series for the dependent-data block bootstrap (Appendix A),
// Bernoulli categorical data, and Gaussian-mixture points for K-Means.
//
// Datasets are rendered in Hadoop's default "one record per line" text
// format so the simulated HDFS LineRecordReader and the pre-map sampler
// operate exactly as the paper describes.
package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colscan"
)

// Dist identifies a numeric value distribution.
type Dist string

// Supported numeric distributions.
const (
	Uniform  Dist = "uniform"  // U(0, 100)
	Gaussian Dist = "gaussian" // N(50, 15)
	Zipf     Dist = "zipf"     // Zipf(s=1.2) over [1, 1e6]
	Pareto   Dist = "pareto"   // heavy tail, alpha=1.5, xm=1
)

// NumericSpec describes a one-value-per-line numeric dataset.
type NumericSpec struct {
	Dist      Dist
	N         int    // number of records
	Seed      uint64 // PCG seed; same seed ⇒ identical dataset
	Clustered bool   // if true, records are sorted — the adversarial layout for block sampling
}

// Generate materialises the values of spec (not yet line-encoded).
func (spec NumericSpec) Generate() ([]float64, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative N %d", spec.N)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0x9e3779b97f4a7c15))
	xs := make([]float64, spec.N)
	switch spec.Dist {
	case Uniform:
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
	case Gaussian:
		for i := range xs {
			xs[i] = rng.NormFloat64()*15 + 50
		}
	case Zipf:
		z := rand.NewZipf(rng, 1.2, 1, 1_000_000)
		for i := range xs {
			xs[i] = float64(z.Uint64() + 1)
		}
	case Pareto:
		const alpha, xm = 1.5, 1.0
		for i := range xs {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			xs[i] = xm / math.Pow(u, 1/alpha)
		}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", spec.Dist)
	}
	if spec.Clustered {
		sort.Float64s(xs)
	}
	return xs, nil
}

// EncodeLines renders numeric values one-per-line, the Hadoop default text
// input format assumed throughout the paper (§3.3, footnote 1).
func EncodeLines(xs []float64) []byte {
	var buf bytes.Buffer
	buf.Grow(len(xs) * 8)
	for _, x := range xs {
		buf.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// EncodeLinesFixed renders numeric values one-per-line in a fixed-width
// format (18 bytes + newline). Because every record occupies the same
// number of bytes, byte-position sampling (the pre-map sampler) is
// *exactly* uniform over records — with variable-width encodings such
// as EncodeLines, a record's inclusion probability is proportional to
// its length, the slight inaccuracy §3.3 of the paper accepts.
func EncodeLinesFixed(xs []float64) []byte {
	// fmt's "%018.9e\n", byte for byte, without a trip through fmt's
	// verb parsing and an interface per value: this sits on earld's
	// append path. A finite value's digits, sign included, are at most 17
	// bytes; the sign leads and zeros fill the rest of the 18.
	const width = 18
	buf := make([]byte, 0, len(xs)*(width+1))
	var num [24]byte
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			// fmt pads these with spaces, not zeros; they are rejected on
			// read either way.
			buf = fmt.Appendf(buf, "%018.9e\n", x)
			continue
		}
		digits := strconv.AppendFloat(num[:0], x, 'e', 9, 64)
		pad := width - len(digits)
		if digits[0] == '-' {
			buf = append(buf, '-')
			digits = digits[1:]
		}
		buf = append(buf, "000000000000000000"[:pad]...)
		buf = append(buf, digits...)
		buf = append(buf, '\n')
	}
	return buf
}

// DecodeLine parses one text record back into a float. Non-finite
// values (NaN, ±Inf) and malformed lines are rejected wrapping
// colscan.ErrBadRecord — one poisoned record must surface through the
// §3.3 error path, not corrupt an order-statistic dictionary. Quoted
// error content is bounded (a truncated multi-MB line must not balloon
// error files).
func DecodeLine(line string) (float64, error) {
	v, err := colscan.ParseValueString(line)
	if err != nil {
		return 0, fmt.Errorf("workload: bad record: %w", err)
	}
	return v, nil
}

// AR1Spec describes a first-order autoregressive time series
// x_t = phi*x_{t-1} + eps_t, the canonical dependent-data workload used to
// exercise the block bootstrap of Appendix A.
type AR1Spec struct {
	Phi   float64 // autocorrelation, |phi| < 1 for stationarity
	Sigma float64 // innovation standard deviation
	Mu    float64 // process mean
	N     int
	Seed  uint64
}

// Generate materialises the series.
func (spec AR1Spec) Generate() ([]float64, error) {
	if math.Abs(spec.Phi) >= 1 {
		return nil, fmt.Errorf("workload: AR(1) needs |phi| < 1, got %v", spec.Phi)
	}
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative N %d", spec.N)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0x853c49e6748fea9b))
	xs := make([]float64, spec.N)
	// Start from the stationary distribution so the whole series is i.d.
	if spec.N > 0 {
		sd0 := spec.Sigma / math.Sqrt(1-spec.Phi*spec.Phi)
		xs[0] = spec.Mu + rng.NormFloat64()*sd0
	}
	for i := 1; i < spec.N; i++ {
		xs[i] = spec.Mu + spec.Phi*(xs[i-1]-spec.Mu) + rng.NormFloat64()*spec.Sigma
	}
	return xs, nil
}

// CategoricalSpec describes Bernoulli categorical data: each record is
// "1" (success) with probability P, else "0" — the proportion-of-successes
// setting Appendix A analyses with z-tests.
type CategoricalSpec struct {
	P    float64
	N    int
	Seed uint64
}

// Generate materialises the 0/1 records as floats.
func (spec CategoricalSpec) Generate() ([]float64, error) {
	if spec.P < 0 || spec.P > 1 {
		return nil, fmt.Errorf("workload: P out of [0,1]: %v", spec.P)
	}
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative N %d", spec.N)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0xda3e39cb94b95bdb))
	xs := make([]float64, spec.N)
	for i := range xs {
		if rng.Float64() < spec.P {
			xs[i] = 1
		}
	}
	return xs, nil
}

// Point is a d-dimensional point for the K-Means workload.
type Point []float64

// MixtureSpec describes a Gaussian-mixture point cloud: K spherical
// clusters in Dim dimensions, the synthetic workload of the paper's
// K-Means experiment (Fig. 7), which lets the reproduction verify that
// EARL's centroids land within 5% of the true ones.
type MixtureSpec struct {
	K      int     // number of clusters
	Dim    int     // dimensionality
	N      int     // total points
	Spread float64 // within-cluster standard deviation
	Sep    float64 // distance scale between cluster centers
	Seed   uint64
}

// Generate returns the points and the true cluster centers.
func (spec MixtureSpec) Generate() (pts []Point, centers []Point, err error) {
	if spec.K <= 0 || spec.Dim <= 0 {
		return nil, nil, fmt.Errorf("workload: mixture needs K>0 and Dim>0, got K=%d Dim=%d", spec.K, spec.Dim)
	}
	if spec.N < 0 {
		return nil, nil, fmt.Errorf("workload: negative N %d", spec.N)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0xc4ceb9fe1a85ec53))
	centers = make([]Point, spec.K)
	for k := range centers {
		c := make(Point, spec.Dim)
		for d := range c {
			c[d] = rng.Float64() * spec.Sep
		}
		centers[k] = c
	}
	pts = make([]Point, spec.N)
	for i := range pts {
		k := rng.IntN(spec.K)
		p := make(Point, spec.Dim)
		for d := range p {
			p[d] = centers[k][d] + rng.NormFloat64()*spec.Spread
		}
		pts[i] = p
	}
	return pts, centers, nil
}

// EncodePoints renders points as comma-separated coordinates, one per line.
func EncodePoints(pts []Point) []byte {
	var buf bytes.Buffer
	for _, p := range pts {
		for d, v := range p {
			if d > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// DecodePoint parses one comma-separated point record.
func DecodePoint(line string) (Point, error) {
	fields := strings.Split(strings.TrimSpace(line), ",")
	p := make(Point, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: bad point record %q: %w", line, err)
		}
		p = append(p, v)
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("workload: empty point record")
	}
	return p, nil
}

// KVSpec describes key,value text records ("key\tvalue" per line) with a
// configurable number of distinct keys; used to exercise post-map sampling
// where the sampler pools records per key (§3.3, Algorithm 1).
type KVSpec struct {
	Keys int // number of distinct keys
	N    int
	Seed uint64
}

// Generate materialises the records.
func (spec KVSpec) Generate() ([]string, error) {
	if spec.Keys <= 0 {
		return nil, fmt.Errorf("workload: KVSpec needs Keys > 0")
	}
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative N %d", spec.N)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0x2545f4914f6cdd1d))
	recs := make([]string, spec.N)
	for i := range recs {
		k := rng.IntN(spec.Keys)
		v := rng.Float64() * 100
		recs[i] = fmt.Sprintf("k%04d\t%s", k, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return recs, nil
}

// EncodeStrings joins records with newlines (trailing newline included).
func EncodeStrings(recs []string) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		buf.WriteString(r)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
