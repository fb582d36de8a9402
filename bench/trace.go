package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by
// the benchmark around the call (nothing inside the program is
// instrumented). Parent 0 marks an op's root span; spans of one op
// share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the replayed pool fill records from several mappers.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// time runs fn inside a span and returns the span's id.
func (r *recorder) time(name string, parent, op int, fn func() error) (int, error) {
	start := time.Since(r.t0)
	err := fn()
	end := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(end)})
	return id, err
}

// reserve opens a span whose children are recorded before it ends.
func (r *recorder) reserve(name string, parent, op int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) finish(id int) {
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = end
}

// write stores the spans as JSON in dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, buf, 0o644)
}

// covered is the length of the union of the intervals: children that
// ran in parallel cover their wall time once, children replayed one
// after another cover the sum of their durations.
func covered(children []span) int64 {
	iv := append([]span(nil), children...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, end int64
	first := true
	for _, s := range iv {
		switch {
		case first || s.Start >= end:
			total += s.dur()
			end = s.End
			first = false
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// selfTimes returns, per span, its duration minus the time its child
// spans cover. A replayed child is a second execution of that part of
// its parent, measured after the parent returned, so it is the length
// of what the children cover that is subtracted, not their position.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID])
	}
	return self
}

// spanStats folds a trace into per-name samples in milliseconds: each
// op contributes the summed duration and summed self time of its spans
// of that name (a pool fill loads many blocks per op).
type spanStats struct {
	dur  map[string][]float64
	self map[string][]float64
	n    map[string]int // spans of that name, over all ops
}

func foldSpans(spans []span) spanStats {
	self := selfTimes(spans)
	type key struct {
		op   int
		name string
	}
	durSum, selfSum := map[key]int64{}, map[key]int64{}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, n: map[string]int{}}
	var order []key
	for _, s := range spans {
		k := key{s.Op, s.Name}
		if _, seen := durSum[k]; !seen {
			order = append(order, k)
		}
		durSum[k] += s.dur()
		selfSum[k] += self[s.ID]
		st.n[s.Name]++
	}
	for _, k := range order {
		st.dur[k.name] = append(st.dur[k.name], float64(durSum[k])/1e6)
		st.self[k.name] = append(st.self[k.name], float64(selfSum[k])/1e6)
	}
	return st
}

// rankLayers orders the layers (the part of a span name before the
// dot) by the median self time they account for per op, largest first.
func rankLayers(st spanStats) []string {
	byLayer := map[string]float64{}
	for name, xs := range st.self {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] += median(xs)
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if byLayer[layers[i]] != byLayer[layers[j]] {
			return byLayer[layers[i]] > byLayer[layers[j]]
		}
		return layers[i] < layers[j]
	})
	return layers
}
