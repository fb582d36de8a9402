package core

import "fmt"

type reducer interface {
	Update(state any, v any) any
}

// growPerItem is the PR 5 historical bug shape: one boxed interface
// conversion per item (371k allocs per Grow before batching).
//
//earl:hotpath
func growPerItem(r reducer, state any, vs []float64) any {
	for _, v := range vs {
		state = r.Update(state, v) // want `boxes float64`
	}
	return state
}

//earl:hotpath
func logPerItem(vs []float64) {
	for _, v := range vs {
		fmt.Println(v) // want `fmt call per loop iteration`
	}
}

//earl:hotpath
func mapPerItem(vs []float64) int {
	total := 0
	for range vs {
		seen := map[int]bool{} // want `map literal allocated per loop iteration`
		total += len(seen)
	}
	return total
}

//earl:hotpath
func makeMapPerItem(vs []float64) int {
	total := 0
	for range vs {
		seen := make(map[int]bool) // want `make\(map\) per loop iteration`
		total += len(seen)
	}
	return total
}

//earl:hotpath
func closurePerItem(vs []float64) float64 {
	var total float64
	for _, v := range vs {
		f := func() float64 { return v } // want `closure allocated per loop iteration`
		total += f()
	}
	return total
}

// errPath: fmt inside a return executes at most once per call — the
// sanctioned error-path shape.
//
//earl:hotpath
func errPath(vs []float64) error {
	for i, v := range vs {
		if v != v {
			return fmt.Errorf("NaN at %d", i)
		}
	}
	return nil
}

// boxedAssign: the conversion hides in an assignment, not a call.
//
//earl:hotpath
func boxedAssign(vs []float64) any {
	var last any
	for _, v := range vs {
		last = v // want `boxes float64`
	}
	return last
}

// justified carries the directive with a reason.
//
//earl:hotpath
func justified(r reducer, state any, vs []float64) any {
	for _, v := range vs {
		//earl:alloc-ok cold fallback; the batch path above handles steady state
		state = r.Update(state, v)
	}
	return state
}

// growPerItemCold has the same body as growPerItem but no annotation:
// only //earl:hotpath functions are checked.
func growPerItemCold(r reducer, state any, vs []float64) any {
	for _, v := range vs {
		state = r.Update(state, v)
	}
	return state
}

// growPerItemMisspelled meant to opt in: hotalloc reads no //earl:hotpth,
// so its boxing goes unchecked — the unknown directive is the finding.
//
//earl:hotpth // want `unknown directive //earl:hotpth`
func growPerItemMisspelled(r reducer, state any, vs []float64) any {
	for _, v := range vs {
		state = r.Update(state, v)
	}
	return state
}
