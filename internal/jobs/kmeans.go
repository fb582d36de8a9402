package jobs

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"repro/internal/dfs"
	"repro/internal/pool"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// KMeans configures the clustering job of the paper's Fig. 7 experiment.
// EARL speeds K-Means up two ways (§6.3): the algorithm runs over a small
// sample, and it converges in fewer iterations on smaller data — without
// changing the algorithm itself.
type KMeans struct {
	K       int
	MaxIter int     // Lloyd iteration cap; 50 if 0
	Tol     float64 // centroid-movement convergence threshold; 1e-6 if 0
	Seed    uint64
}

func (c KMeans) withDefaults() (KMeans, error) {
	if c.K <= 0 {
		return c, fmt.Errorf("jobs: KMeans needs K > 0, got %d", c.K)
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	return c, nil
}

// FitResult is a completed clustering.
type FitResult struct {
	Centers    []workload.Point
	WCSS       float64 // within-cluster sum of squares over the fitted data
	Iterations int
}

func sqDist(a, b workload.Point) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return d2
}

// nearest returns the index of the closest center and the squared
// distance to it.
func nearest(p workload.Point, centers []workload.Point) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for i, c := range centers {
		if d := sqDist(p, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// seedCenters picks initial centers with the k-means++ heuristic.
func (c KMeans) seedCenters(rng *rand.Rand, pts []workload.Point) []workload.Point {
	centers := make([]workload.Point, 0, c.K)
	centers = append(centers, pts[rng.IntN(len(pts))])
	d2 := make([]float64, len(pts))
	for len(centers) < c.K {
		var total float64
		for i, p := range pts {
			_, d := nearest(p, centers)
			d2[i] = d
			total += d
		}
		if total == 0 {
			// All points coincide with existing centers; duplicate one.
			centers = append(centers, centers[0])
			continue
		}
		x := rng.Float64() * total
		pick := len(pts) - 1
		for i, d := range d2 {
			if x < d {
				pick = i
				break
			}
			x -= d
		}
		centers = append(centers, append(workload.Point(nil), pts[pick]...))
	}
	return centers
}

// Fit runs Lloyd's algorithm with k-means++ initialisation over the
// points in memory — the computation EARL executes on its sample.
func (c KMeans) Fit(pts []workload.Point) (FitResult, error) {
	c, err := c.withDefaults()
	if err != nil {
		return FitResult{}, err
	}
	if len(pts) == 0 {
		return FitResult{}, errors.New("jobs: KMeans on empty point set")
	}
	if len(pts) < c.K {
		return FitResult{}, fmt.Errorf("jobs: %d points < K=%d", len(pts), c.K)
	}
	rng := rand.New(rand.NewPCG(c.Seed, 0x59f111f1b605d019))
	dim := len(pts[0])
	centers := c.seedCenters(rng, pts)
	sums := make([]workload.Point, c.K)
	counts := make([]int, c.K)
	var iter int
	for iter = 1; iter <= c.MaxIter; iter++ {
		for k := range sums {
			sums[k] = make(workload.Point, dim)
			counts[k] = 0
		}
		for _, p := range pts {
			k, _ := nearest(p, centers)
			for d := range p {
				sums[k][d] += p[d]
			}
			counts[k]++
		}
		moved := 0.0
		for k := range centers {
			if counts[k] == 0 {
				continue // keep the old center for an empty cluster
			}
			next := make(workload.Point, dim)
			for d := range next {
				next[d] = sums[k][d] / float64(counts[k])
			}
			moved += math.Sqrt(sqDist(centers[k], next))
			centers[k] = next
		}
		if moved < c.Tol {
			break
		}
	}
	if iter > c.MaxIter {
		iter = c.MaxIter
	}
	var wcss float64
	for _, p := range pts {
		_, d := nearest(p, centers)
		wcss += d
	}
	return FitResult{Centers: centers, WCSS: wcss, Iterations: iter}, nil
}

// FitMR runs the same algorithm as the stock-Hadoop flow of Fig. 7 —
// one MapReduce job per Lloyd iteration (map: assign each point to its
// nearest center; combine: per-split partial sums; reduce: one new
// center per cluster), then one job for the WCSS — as column passes over
// v's splits of path, a file of comma-separated points. v is one run's
// pinned view, so every pass reads one commit. ledger is charged what
// the iterated stock job would be: per job its startup, its map and
// reduce tasks, every line read and mapped, and every per-split partial
// shuffled and reduced — the per-job costs the paper's comparison
// highlights. The splits' reads are charged by v.
func (c KMeans) FitMR(v dfs.View, ledger *simcost.Metrics, path string) (FitResult, error) {
	c, err := c.withDefaults()
	if err != nil {
		return FitResult{}, err
	}
	splits, err := v.Splits(path, 0)
	if err != nil {
		return FitResult{}, err
	}
	// Seed with k-means++ over a small prefix of the file — the usual
	// Hadoop practice of initialising from a tiny local sample instead of
	// a full pass.
	prefixN := 50 * c.K
	if prefixN < 200 {
		prefixN = 200
	}
	prefix, err := readFirstPoints(v, splits, prefixN)
	if err != nil {
		return FitResult{}, err
	}
	if len(prefix) < c.K {
		return FitResult{}, fmt.Errorf("jobs: file has %d points < K=%d", len(prefix), c.K)
	}
	rng := rand.New(rand.NewPCG(c.Seed, 0x923f82a4af194f9b))
	centers := c.seedCenters(rng, prefix)
	var iter int
	for iter = 1; iter <= c.MaxIter; iter++ {
		next, err := lloydPass(v, ledger, splits, centers)
		if err != nil {
			return FitResult{}, fmt.Errorf("jobs: kmeans iteration %d: %w", iter, err)
		}
		moved := 0.0
		for k := range centers {
			moved += math.Sqrt(sqDist(centers[k], next[k]))
		}
		centers = next
		if moved < c.Tol {
			break
		}
	}
	if iter > c.MaxIter {
		iter = c.MaxIter
	}
	wcss, err := wcssPass(v, ledger, splits, centers)
	if err != nil {
		return FitResult{}, err
	}
	return FitResult{Centers: centers, WCSS: wcss, Iterations: iter}, nil
}

// partialBytes is the modelled shuffle size of one partial sum: one
// word, as the sampled engine and the exact scan charge a numeric value.
const partialBytes = 8

// lloydPass is one Lloyd iteration in the stock job's order: each split
// folds its points, in line order, into per-center sums from zero (the
// map task and its combiner); then, per center, the splits' partial
// sums are added in split order, skipping splits with no point for it,
// and divided by the count (the reducer). A center no point is nearest
// to keeps its position.
func lloydPass(v dfs.View, ledger *simcost.Metrics, splits []dfs.Split, centers []workload.Point) ([]workload.Point, error) {
	type partial struct {
		sums   []workload.Point // per center; nil where no point fell
		counts []int64
		lines  int64
	}
	parts := make([]partial, len(splits))
	err := pool.ForEach(len(splits), pool.Workers(0), func(i int) (err error) {
		pt := &parts[i]
		pt.sums, pt.counts = make([]workload.Point, len(centers)), make([]int64, len(centers))
		pt.lines, err = eachPoint(v, splits[i], func(p workload.Point) {
			k, _ := nearest(p, centers)
			if pt.sums[k] == nil {
				pt.sums[k] = make(workload.Point, len(p))
			}
			for d := range p {
				pt.sums[k][d] += p[d]
			}
			pt.counts[k]++
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	cost := simcost.Snapshot{JobStartups: 1, MapTasks: int64(len(splits)), ReduceTasks: int64(len(centers))}
	for _, pt := range parts {
		cost.RecordsRead += pt.lines
	}
	cost.RecordsMapped = cost.RecordsRead
	next := append([]workload.Point(nil), centers...)
	for k := range centers {
		var sum workload.Point
		var n int64
		for _, pt := range parts {
			if pt.sums[k] == nil {
				continue
			}
			if sum == nil {
				sum = make(workload.Point, len(pt.sums[k]))
			}
			for d := range pt.sums[k] {
				sum[d] += pt.sums[k][d]
			}
			n += pt.counts[k]
			cost.RecordsReduced++
			cost.BytesShuffled += int64(len(strconv.Itoa(k))) + partialBytes
		}
		if n > 0 {
			for d := range sum {
				sum[d] /= float64(n)
			}
			next[k] = sum
		}
	}
	ledger.Charge(cost)
	return next, nil
}

// wcssPass is the stock WCSS job: each split sums its points' squared
// distances to their nearest center, in line order, and the splits that
// have points are added in split order under one reducer.
func wcssPass(v dfs.View, ledger *simcost.Metrics, splits []dfs.Split, centers []workload.Point) (float64, error) {
	sums, lines := make([]float64, len(splits)), make([]int64, len(splits))
	err := pool.ForEach(len(splits), pool.Workers(0), func(i int) (err error) {
		lines[i], err = eachPoint(v, splits[i], func(p workload.Point) {
			_, d := nearest(p, centers)
			sums[i] += d
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	cost := simcost.Snapshot{JobStartups: 1, MapTasks: int64(len(splits)), ReduceTasks: 1}
	var wcss float64
	for i, n := range lines {
		cost.RecordsRead += n
		if n > 0 {
			wcss += sums[i]
			cost.RecordsReduced++
			cost.BytesShuffled += int64(len("wcss")) + partialBytes
		}
	}
	cost.RecordsMapped = cost.RecordsRead
	ledger.Charge(cost)
	return wcss, nil
}

// eachPoint hands fn every point of sp in line order and returns how
// many lines it read.
func eachPoint(v dfs.View, sp dfs.Split, fn func(workload.Point)) (int64, error) {
	rd, err := v.NewLineReader(sp, 0)
	if err != nil {
		return 0, err
	}
	var n int64
	for rd.Next() {
		p, err := workload.DecodePoint(rd.Text())
		if err != nil {
			return n, fmt.Errorf("jobs: %s offset %d: %w", sp.Path, rd.RecordOffset(), err)
		}
		fn(p)
		n++
	}
	return n, rd.Err()
}

func readFirstPoints(v dfs.View, splits []dfs.Split, k int) ([]workload.Point, error) {
	var pts []workload.Point
	for _, sp := range splits {
		rd, err := v.NewLineReader(sp, 0)
		if err != nil {
			return nil, err
		}
		for rd.Next() {
			p, err := workload.DecodePoint(rd.Text())
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
			if len(pts) == k {
				return pts, nil
			}
		}
		if rd.Err() != nil {
			return nil, rd.Err()
		}
	}
	return pts, nil
}

// CentroidError greedily matches fitted centers to true centers and
// returns the mean matched distance divided by the mean pairwise scale
// of the truth — the "within 5% of the optimal" check of §6.3.
func CentroidError(got, truth []workload.Point) (float64, error) {
	if len(got) == 0 || len(truth) == 0 {
		return 0, errors.New("jobs: empty center sets")
	}
	used := make([]bool, len(truth))
	var total float64
	for _, g := range got {
		best, bestD := -1, math.Inf(1)
		for i, tr := range truth {
			if used[i] {
				continue
			}
			if d := sqDist(g, tr); d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 { // more fitted centers than truth: match to nearest
			_, bestD = nearest(g, truth)
		} else {
			used[best] = true
		}
		total += math.Sqrt(bestD)
	}
	meanDist := total / float64(len(got))
	// Scale: mean distance between distinct true centers.
	var scale float64
	var pairs int
	for i := range truth {
		for j := i + 1; j < len(truth); j++ {
			scale += math.Sqrt(sqDist(truth[i], truth[j]))
			pairs++
		}
	}
	if pairs == 0 || scale == 0 {
		return meanDist, nil
	}
	return meanDist / (scale / float64(pairs)), nil
}

// WCSSOf evaluates the within-cluster sum of squares of centers over pts
// — the scalar statistic EARL bootstraps to attach an error bound to an
// early K-Means result.
func WCSSOf(centers []workload.Point, pts []workload.Point) float64 {
	var wcss float64
	for _, p := range pts {
		_, d := nearest(p, centers)
		wcss += d
	}
	return wcss
}
