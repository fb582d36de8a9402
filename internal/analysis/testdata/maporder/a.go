package mr

import (
	"hash/fnv"
	"sort"
)

type reducer struct{}

func (reducer) Update(s []float64, v float64) []float64 { return append(s, v) }

func (reducer) Merge(s, other []float64) []float64 { return append(s, other...) }

// appendUnsorted accumulates in map-iteration order: the slice's final
// order is run-dependent.
func appendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to a slice built across iterations`
	}
	return keys
}

// appendSorted is the sanctioned collect-keys-then-sort idiom.
func appendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perIterationBuffer appends into a slice declared inside the loop:
// ordering cannot leak out through it.
func perIterationBuffer(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var buf []int
		buf = append(buf, vs...)
		total += len(buf)
	}
	return total
}

func sendEach(m map[string]int, ch chan<- int) {
	for _, v := range m {
		ch <- v // want `channel send`
	}
}

// seedDerivation is the PR 2 historical bug shape: per-key seeds
// derived from a digest fed in map-iteration order, so grouped runs
// were not bit-identical under a fixed seed.
func seedDerivation(groups map[string][]float64) uint64 {
	h := fnv.New64a()
	for k := range groups {
		h.Write([]byte(k)) // want `hash Write`
	}
	return h.Sum64()
}

// foldUpdate feeds reducer state in map-iteration order.
func foldUpdate(m map[string][]float64, r reducer) []float64 {
	var s []float64
	for _, vs := range m {
		for _, v := range vs {
			s = r.Update(s, v) // want `order-sensitive state fold`
		}
	}
	return s
}

// foldMerge merges per-key states in map-iteration order.
func foldMerge(m map[string][]float64, r reducer) []float64 {
	var s []float64
	for _, other := range m {
		s = r.Merge(s, other) // want `order-sensitive state fold`
	}
	return s
}

// commutative folds (summing into a scalar, writing back into the same
// map) pass without annotation.
func commutative(m map[string]int) int {
	total := 0
	for k, v := range m {
		total += v
		m[k] = 0
	}
	return total
}

// justified carries the directive with a reason.
func justified(m map[string]int, ch chan<- int) {
	//earl:nondet-ok consumer is a counter; arrival order immaterial
	for _, v := range m {
		ch <- v
	}
}
