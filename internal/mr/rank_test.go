package mr

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// countedReducer is meanReducer declared a MultisetReducer, so Rank
// agrees to rank for it; the counted methods are never called here.
type countedReducer struct{ meanReducer }

func (countedReducer) UpdateCounted(State, []float64, []uint32) (State, error) {
	return nil, nil
}

func (countedReducer) FinalizeCounted([]float64, []uint32, int64) (float64, error) {
	return 0, nil
}

// TestRankAscendingMatchesSort: on ascending sources with duplicates the
// one-pass ranking and the sort-and-search ranking are the same Ranking,
// and Rank takes the one-pass path for them; a shuffled copy of the same
// source still ranks by sort, to the same distinct values.
func TestRankAscendingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	sources := [][]float64{
		{7},
		{3, 3, 3, 3},
		{math.Copysign(0, -1), math.Copysign(0, -1), 1},
		{0, 0, 2.5, 2.5, 2.5},
		{math.Inf(-1), -4, -4, -1e-300, 0, 1e300, math.Inf(1), math.Inf(1)},
	}
	for n := range 6 {
		xs := make([]float64, 50+n*400)
		for i := range xs {
			xs[i] = float64(rng.IntN(8+n*20)) / 4
		}
		slices.Sort(xs)
		sources = append(sources, xs)
	}
	red := countedReducer{}
	for _, src := range sources {
		want := rankBySort(src)
		if got := rankAscending(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-value source: one-pass ranking differs from the sorted one:\n%+v\n%+v", len(src), got, want)
		}
		if got := Rank(red, src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-value source: Rank differs from the sorted ranking", len(src))
		}
		if len(src) < 2 || src[0] == src[len(src)-1] {
			continue
		}
		shuffled := slices.Clone(src)
		slices.Reverse(shuffled)
		rk := Rank(red, shuffled)
		if !slices.Equal(rk.Distinct, want.Distinct) {
			t.Fatalf("%d-value source: a shuffled copy ranks to other distinct values", len(src))
		}
		for j, v := range shuffled {
			if rk.Distinct[rk.Of[j]] != v {
				t.Fatalf("%d-value source: shuffled record %d ranks to %v, is %v", len(src), j, rk.Distinct[rk.Of[j]], v)
			}
		}
	}
	if Rank(red, []float64{0, 0, math.Copysign(0, -1)}) != nil {
		t.Fatal("an ascending source mixing +0 and −0 was ranked")
	}
}

// rankReference is Rank by the book: a sorted copy, its distinct
// values, and a binary search per element.
func rankReference(source []float64) *Ranking {
	sorted := slices.Clone(source)
	slices.Sort(sorted)
	distinct := slices.Compact(sorted)
	of := make([]uint32, len(source))
	for j, v := range source {
		i, _ := slices.BinarySearch(distinct, v)
		of[j] = uint32(i)
	}
	return &Ranking{Distinct: distinct, Of: of}
}

// TestRankBySortMatchesReference: the radix ranking of an unsorted
// source is the reference ranking — negatives, infinities, subnormals,
// −0 alone and heavy duplication included.
func TestRankBySortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 3))
	specials := []float64{math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.SmallestNonzeroFloat64, -5e-324, math.Copysign(0, -1)}
	for trial := range 40 {
		src := make([]float64, 1+rng.IntN(3000))
		for i := range src {
			switch rng.IntN(4) {
			case 0:
				src[i] = specials[rng.IntN(len(specials))]
			case 1:
				src[i] = float64(rng.IntN(50) - 25)
			default:
				src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(20)-10))
			}
			if src[i] == 0 {
				src[i] = math.Copysign(0, -1) // −0 alone: the source ranks
			}
		}
		if got, want := rankBySort(src), rankReference(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d values): radix ranking differs from the reference", trial, len(src))
		}
	}
}
