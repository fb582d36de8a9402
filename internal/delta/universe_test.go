package delta

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/jobs"
	"repro/internal/mr"
	"repro/internal/simcost"
	"repro/internal/workload"
)

// TestUniverseMaintainerEqualsRankedSegments: a maintainer told the
// pilot's distinct values as its universe — each segment's ranking a
// view of the pilot's, every counted statistic read from one count
// vector per resample — leaves, after every generation of SSABE's
// five-segment schedule, the results bit for bit, the work count and
// the modelled cost of a maintainer handed mr.Rank of each segment,
// which folds the counts into order-statistic states. The statistics
// are a lane reducer, two quantiles and a plain reducer, which folds
// neither lanes nor counts; the pilots are Zipf (few distinct values) and
// Gaussian (all distinct), at Parallelism 1 and 3. A grow whose ranking
// does not index the universe is refused.
func TestUniverseMaintainerEqualsRankedSegments(t *testing.T) {
	p50, err := jobs.ByName("p50")
	if err != nil {
		t.Fatal(err)
	}
	p95, err := jobs.ByName("p95")
	if err != nil {
		t.Fatal(err)
	}
	more := []Stat{
		{Reducer: p50.Reducer, Key: "p50", B: 14},
		{Reducer: p95.Reducer, Key: "p95", B: 11},
		{Reducer: welfordReducer{}, Key: "plain", B: 6},
	}
	for _, dist := range []workload.Dist{workload.Zipf, workload.Gaussian} {
		pilot, err := workload.NumericSpec{Dist: dist, N: 4000, Seed: 83}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		rk := mr.Rank(p50.Reducer, pilot)
		if rk == nil {
			t.Fatalf("%v pilot not ranked", dist)
		}
		for _, par := range []int{1, 3} {
			where := fmt.Sprintf("%v parallelism %d", dist, par)
			cfg := func(metrics *simcost.Metrics, universe []float64) Config {
				return Config{Reducer: jobs.Mean().Reducer, Key: "mean", B: 9, Seed: 17, Metrics: metrics,
					Parallelism: par, Universe: universe}
			}
			var ranked, counted simcost.Metrics
			want, err := New(cfg(&ranked, nil), more...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(cfg(&counted, rk.Distinct), more...)
			if err != nil {
				t.Fatal(err)
			}
			lo := 0
			for i := 1; i <= 5; i++ {
				hi := len(pilot) >> (5 - i)
				seg := pilot[lo:hi]
				if err := want.GrowRanked(seg, mr.Rank(p50.Reducer, seg)); err != nil {
					t.Fatal(err)
				}
				if err := got.GrowRanked(seg, &mr.Ranking{Distinct: rk.Distinct, Of: rk.Of[lo:hi]}); err != nil {
					t.Fatalf("%s segment %d: %v", where, i, err)
				}
				for s := range 1 + len(more) {
					w, err := want.ResultsOf(s)
					if err != nil {
						t.Fatal(err)
					}
					g, err := got.ResultsOf(s)
					if err != nil {
						t.Fatal(err)
					}
					for r := range w {
						if math.Float64bits(g[r]) != math.Float64bits(w[r]) {
							t.Fatalf("%s segment %d: statistic %d resample %d = %v over the universe, %v ranked alone",
								where, i, s, r, g[r], w[r])
						}
					}
				}
				if got.Updates() != want.Updates() {
					t.Fatalf("%s segment %d: %d updates over the universe, %d ranked alone",
						where, i, got.Updates(), want.Updates())
				}
				if c, w := counted.Snapshot(), ranked.Snapshot(); c != w {
					t.Fatalf("%s segment %d: cost %+v over the universe, %+v ranked alone", where, i, c, w)
				}
				lo = hi
			}
		}
	}

	// Refusals: the Gaussian pilot's values are all distinct, so no
	// segment's own ranking — nor none — indexes the pilot's universe.
	pilot := sampleData(800, 84)
	rk := mr.Rank(p50.Reducer, pilot)
	seg := pilot[:50]
	for _, c := range []struct {
		name string
		grow func(*Maintainer) error
	}{
		{"the segment's own ranking", func(m *Maintainer) error { return m.GrowRanked(seg, mr.Rank(p50.Reducer, seg)) }},
		{"no ranking", func(m *Maintainer) error { return m.GrowRanked(seg, nil) }},
		{"Grow", func(m *Maintainer) error { return m.Grow(seg) }},
	} {
		m, err := New(Config{Reducer: p50.Reducer, B: 4, Seed: 1, Universe: rk.Distinct})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.grow(m); err == nil {
			t.Errorf("a maintainer over a universe accepted %s", c.name)
		}
	}
}
