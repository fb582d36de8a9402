package earl_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/earl"
	"repro/internal/workload"
)

// fullCoverage runs the coverage matrix at its full size, 400 seeds a
// cell, against testdata/coverage_full.txt instead of the smoke size's
// testdata/coverage.txt.
var fullCoverage = flag.Bool("coverage.full", false, "run the coverage matrix at 400 seeds a cell (testdata/coverage_full.txt)")

// TestCoverageMatrix measures how often EARL's reported interval holds
// the exact answer: per cell, the same query at σ 0.05 under many seeds
// over one dataset, against the truth from one exact column pass.
//
//	{pre-map, post-map} × {gaussian, zipf} × {mean, sum, median, p95}
//
// The Gaussian dataset is the same-bits matrix's 40 k records. The Zipf
// one has 1 M: a Zipf mean plans n ≈ 10⁶, so over 40 k records its
// mean and sum cells fall back to the exact answer on every seed and
// measure no coverage.
//
// A row records the sampled runs' coverage with its 95 % Wilson
// interval, their mean interval width over |truth|, mean planned n,
// mean SampleSize and mean B, and apart from them the share of runs that
// fell back to the exact answer (which covers by construction, so it is
// kept out of the coverage). The table is compared byte for byte with
// the recorded one; -update re-records it.
func TestCoverageMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the coverage matrix runs hundreds of queries a cell")
	}
	seeds, file, flags := 150, "testdata/coverage.txt", "-update"
	if *fullCoverage {
		seeds, file, flags = 400, "testdata/coverage_full.txt", "-update -coverage.full"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# σ 0.05, 40 k gaussian and 1 M zipf records, %d seeds a cell; re-record with go test ./earl -run TestCoverageMatrix %s\n", seeds, flags)
	fmt.Fprintf(&b, "# %-8s %-8s %-6s %-22s %-9s %-10s %-10s %-5s %s\n", "sampler", "dist", "stat", "coverage [wilson 95%]", "width/|x|", "planned n", "sample n", "B", "fall-back")
	for _, set := range []struct {
		dist workload.Dist
		n    int
	}{{workload.Gaussian, 40_000}, {workload.Zipf, 1_000_000}} {
		dist := set.dist
		xs, err := workload.NumericSpec{Dist: dist, N: set.n, Seed: 1}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		data := workload.EncodeLinesFixed(xs) // matrixData's base
		for _, sampler := range []earl.SamplerKind{earl.PreMapSampling, earl.PostMapSampling} {
			c, err := earl.NewCluster(earl.ClusterConfig{BlockSize: 1 << 16, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteFile("/data", data); err != nil {
				t.Fatal(err)
			}
			for _, stat := range []string{"mean", "sum", "median", "p95"} {
				job := mustJob(t, stat)
				truth, _, err := c.RunExact(job, "/data")
				if err != nil {
					t.Fatal(err)
				}
				reps := coverageRuns(t, c, job, sampler, seeds)
				fmt.Fprintf(&b, "%-10s %-8s %-6s %s\n", sampler, dist, stat, coverageRow(reps, truth))
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", got)
	if got != string(want) {
		t.Errorf("coverage table moved from %s (re-record with -update if on purpose)", file)
	}
}

// coverageRuns runs job once per seed 100, 101, … on a few goroutines
// and returns the reports in seed order.
func coverageRuns(t *testing.T, c *earl.Cluster, job earl.Job, sampler earl.SamplerKind, seeds int) []earl.Report {
	t.Helper()
	reps := make([]earl.Report, seeds)
	errs := make([]error, seeds)
	workers := min(runtime.GOMAXPROCS(0), 4)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < seeds; i += workers {
				reps[i], errs[i] = c.Run(job, "/data", earl.Options{Sigma: 0.05, Seed: uint64(100 + i), Sampler: sampler, Parallelism: 1})
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("seed %d: %v", 100+i, err)
		}
	}
	return reps
}

// coverageRow summarises one cell's reports against the truth.
func coverageRow(reps []earl.Report, truth float64) string {
	var covered, sampled, full int
	var width, planned, size, b float64
	for _, r := range reps {
		if r.UsedFull {
			full++
			continue
		}
		sampled++
		if r.CILo <= truth && truth <= r.CIHi {
			covered++
		}
		width += (r.CIHi - r.CILo) / math.Abs(truth)
		planned += float64(r.PlannedN)
		size += float64(r.SampleSize)
		b += float64(r.B)
	}
	fallBack := float64(full) / float64(len(reps))
	if sampled == 0 {
		return fmt.Sprintf("%-22s %-9s %-10s %-10s %-5s %.3f", "-", "-", "-", "-", "-", fallBack)
	}
	n := float64(sampled)
	p := float64(covered) / n
	lo, hi := wilson(covered, sampled)
	return fmt.Sprintf("%.3f [%.3f, %.3f]   %-9.4f %-10.1f %-10.1f %-5.1f %.3f",
		p, lo, hi, width/n, planned/n, size/n, b/n, fallBack)
}

// wilson is the 95 % Wilson score interval of k successes in n trials.
func wilson(k, n int) (lo, hi float64) {
	const z = 1.959964
	p, nf := float64(k)/float64(n), float64(n)
	centre := (p + z*z/(2*nf)) / (1 + z*z/nf)
	half := z / (1 + z*z/nf) * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return centre - half, centre + half
}
