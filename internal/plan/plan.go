// Package plan is EARL's query-plan layer: a small relational algebra —
// σ (filter predicates over the parsed columns), π/derive (an
// arithmetic expression producing the analyzed value), γ (a group-by
// key expression) and aggregate (the jobs.Numeric statistic set) —
// compiled down onto the unified sampling engine.
//
// Spec is the one canonical, JSON-serializable query description shared
// verbatim by the public earl library, earlctl's flags and earld's HTTP
// API; Normalize is the one shared validation/canonicalization path, so
// the front ends cannot drift. Compile turns a normalized Spec into a
// Program: vectorized kernels (vm.go: a tiled selection-vector
// evaluator) that filter, derive and label decoded column batches —
// every run, sampled or exact, goes through them — plus a per-record
// reference evaluator (eval.go), the oracle the kernels are fuzz-checked
// bit-identical against.
//
// Execution semantics, chosen once here for every front end:
//
//   - Pushdown: the filter is applied before sampling (filter-then-
//     sample), not after. SSABE's pilot therefore sees the effective
//     post-filter N, sample-size planning and the MaxSampleShare cap
//     are relative to the filtered subpopulation, and the reported
//     confidence intervals are for statistics OF THAT SUBPOPULATION
//     (sum/count estimate the subpopulation's total/cardinality).
//   - Columns: v (alias value) is the record's numeric value; key is
//     the record's group key. Referencing key anywhere — or grouping by
//     it — puts the plan on "key\tvalue" (FormatKV) input; otherwise
//     input is one number per line.
//   - derive and the group-by expression are evaluated over the RAW
//     record (SQL's "SELECT agg(derive) ... WHERE f GROUP BY g"); a
//     numeric group-by expression labels each group with the canonical
//     decimal rendering of its value.
//   - Booleans are 0/1; && and || evaluate both operands (no short
//     circuit); comparisons involving NaN are false and arithmetic
//     propagates NaN per IEEE 754. A non-finite derive or group-by
//     RESULT fails the record as a bad record (wrap the operand in a
//     filter — "v != 0" before "1/v" — to avoid it); non-finite
//     intermediate values are fine.
package plan

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/colscan"
	"repro/internal/jobs"
)

// Spec is the canonical plan description. Stats, Filter, Derive and
// GroupBy define the algebra; Sigma, Sampler and Seed are the execution
// knobs that decide its bits. The worker-pool size decides none, so it
// is core.Options.Parallelism and not a wire field. The zero value of
// every field means "default"; Normalize canonicalizes a spec so that
// two specs describing the same query serialize — and cache/dedup-key —
// identically.
type Spec struct {
	Path    string   `json:"path"`
	Stats   []string `json:"stats,omitempty"`  // statistic names (jobs.ByName); ["mean"] if empty
	Filter  string   `json:"filter,omitempty"` // σ: boolean expression over v/key
	Derive  string   `json:"derive,omitempty"` // π: numeric expression replacing v
	GroupBy string   `json:"by,omitempty"`     // γ: "key" or a numeric expression

	Sigma   float64 `json:"sigma,omitempty"`
	Sampler string  `json:"sampler,omitempty"` // "", "pre-map", "post-map"
	Seed    uint64  `json:"seed,omitempty"`
}

// Normalize validates s and returns its canonical form: statistic names
// lower-cased, resolved and deduplicated; expressions re-printed from
// their parse trees (so "v>1" and "(v) > 1.0" normalize to the same
// text); defaults applied. Expression errors are *PosError with the
// offending column.
func (s Spec) Normalize() (Spec, error) {
	if strings.TrimSpace(s.Path) == "" {
		return s, fmt.Errorf("plan: path is required")
	}
	s.Path = strings.TrimSpace(s.Path)
	if len(s.Stats) == 0 {
		s.Stats = []string{"mean"}
	} else {
		s.Stats = append([]string(nil), s.Stats...)
	}
	seen := make(map[string]bool, len(s.Stats))
	for i, name := range s.Stats {
		job, err := jobs.ByName(strings.ToLower(strings.TrimSpace(name)))
		if err != nil {
			return s, fmt.Errorf("plan: %w", err)
		}
		s.Stats[i] = job.Name
		if seen[job.Name] {
			return s, fmt.Errorf("plan: duplicate statistic %q", job.Name)
		}
		seen[job.Name] = true
	}
	var err error
	if s.Filter = strings.TrimSpace(s.Filter); s.Filter != "" {
		if s.Filter, err = canonicalize(s.Filter, kBool, "filter"); err != nil {
			return s, fmt.Errorf("plan: filter: %w", err)
		}
	}
	if s.Derive = strings.TrimSpace(s.Derive); s.Derive != "" {
		if s.Derive, err = canonicalize(s.Derive, kNum, "derive"); err != nil {
			return s, fmt.Errorf("plan: derive: %w", err)
		}
	}
	if s.GroupBy = strings.TrimSpace(s.GroupBy); s.GroupBy != "" && s.GroupBy != "key" {
		if s.GroupBy, err = canonicalize(s.GroupBy, kNum, "group-by"); err != nil {
			return s, fmt.Errorf("plan: group-by: %w", err)
		}
	}
	if s.GroupBy != "" && len(s.Stats) != 1 {
		return s, fmt.Errorf("plan: grouped queries take a single statistic, got %d", len(s.Stats))
	}
	switch s.Sampler {
	case "":
		s.Sampler = "pre-map" // the engine default, made explicit so keys match
	case "pre-map", "post-map":
	default:
		return s, fmt.Errorf("plan: unknown sampler %q (want pre-map or post-map)", s.Sampler)
	}
	if s.Sigma < 0 {
		return s, fmt.Errorf("plan: sigma must be positive, got %g", s.Sigma)
	}
	if s.Sigma == 0 {
		s.Sigma = 0.05
	}
	return s, nil
}

// canonicalize parses src, checks it against want and re-prints the
// tree canonically.
func canonicalize(src string, want kind, what string) (string, error) {
	c, err := compileExpr(src, want, what)
	if err != nil {
		return "", err
	}
	return c.canon, nil
}

// Key is the canonical identity of a normalized spec — what serve's
// dedup registry and result cache key on. Two specs that Normalize to
// the same value answer the same query.
func (s Spec) Key() string {
	return fmt.Sprintf("%s|%s|f=%s|d=%s|by=%s|σ=%g|%s|seed=%d",
		strings.Join(s.Stats, "+"), s.Path, s.Filter, s.Derive, s.GroupBy,
		s.Sigma, s.Sampler, s.Seed)
}

// JobSet resolves the spec's statistics (call on a normalized spec).
func (s Spec) JobSet() ([]jobs.Numeric, error) {
	set := make([]jobs.Numeric, len(s.Stats))
	for i, name := range s.Stats {
		job, err := jobs.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		set[i] = job
	}
	return set, nil
}

// Program is a compiled plan: the vectorized filter/derive/group
// kernels a run pushes into its sampling sources. A Program is
// immutable and shared across the run's mappers; all mutable evaluation
// state lives in a per-source Scratch.
type Program struct {
	filter   *compiled // nil: keep every record
	derive   *compiled // nil: analyze v itself
	group    *compiled // nil unless grouping by an expression
	groupKey bool      // γ is the record key verbatim
	format   colscan.Format
}

// Compile builds the Program of a normalized spec. A degenerate plan —
// no filter, no derive, and a group-by the legacy grouped route already
// implements ("" or "key") — compiles to a nil Program: callers take
// the untransformed legacy path, which pins degenerate plans
// bit-identical to the historical entry points.
func (s Spec) Compile() (*Program, error) {
	if s.Filter == "" && s.Derive == "" && (s.GroupBy == "" || s.GroupBy == "key") {
		return nil, nil
	}
	p := &Program{}
	var err error
	if s.Filter != "" {
		if p.filter, err = compileExpr(s.Filter, kBool, "filter"); err != nil {
			return nil, fmt.Errorf("plan: filter: %w", err)
		}
	}
	if s.Derive != "" {
		if p.derive, err = compileExpr(s.Derive, kNum, "derive"); err != nil {
			return nil, fmt.Errorf("plan: derive: %w", err)
		}
	}
	switch {
	case s.GroupBy == "key":
		p.groupKey = true
	case s.GroupBy != "":
		if p.group, err = compileExpr(s.GroupBy, kNum, "group-by"); err != nil {
			return nil, fmt.Errorf("plan: group-by: %w", err)
		}
	}
	p.format = colscan.FormatNumeric
	if p.groupKey ||
		(p.filter != nil && p.filter.usesKey) ||
		(p.derive != nil && p.derive.usesKey) ||
		(p.group != nil && p.group.usesKey) {
		p.format = colscan.FormatKV
	}
	return p, nil
}

// InputFormat is the columnar format the plan's input records decode
// under (FormatKV as soon as any expression or the group-by reads the
// key column).
func (p *Program) InputFormat() colscan.Format { return p.format }

// HasFilter reports whether the plan filters records (σ present).
func (p *Program) HasFilter() bool { return p.filter != nil }

// Scratch is the per-source mutable evaluation state of a Program: the
// tile-sized registers, selection vectors and mask of the vectorized
// evaluator (vm.go), one truth table per string predicate (a byte per
// entry of the largest key dictionary seen), and the group-label intern
// table. Nothing in it grows with the length of the batches Apply
// filters; KeepBlock's selection buffer grows to the largest block it
// evaluated. One Scratch serves one drawing goroutine at a time.
type Scratch struct {
	regs   [][]float64
	sels   [][]int32
	mask   []uint8
	truth  [][]uint8
	labels map[uint64]string // by value bits: 0 and -0 label differently, as in EvalRecord
	keep   []int32           // KeepBlock's selection before a memo copies it
}

// NewScratch builds evaluation state for one source.
func NewScratch() *Scratch {
	return &Scratch{labels: make(map[uint64]string)}
}

// Apply evaluates the plan over one raw batch, a tile at a time,
// appending the surviving records — derived value, plus group label
// when the plan is keyed — to out, and reports how many survived.
// prefiltered marks batches whose σ was already applied upstream (a
// pool filled through KeepBlock), so only π/γ run. Non-finite derive or
// group results fail with colscan.ErrBadRecord wrapped; out then holds
// the tiles before the failing one.
//
//earl:hotpath
func (p *Program) Apply(sc *Scratch, in *colscan.Cols, out *colscan.Cols, prefiltered bool) (int, error) {
	filter := p.filter
	if prefiltered {
		filter = nil
	}
	sc.fit(filter)
	sc.fit(p.derive)
	sc.fit(p.group)
	kept := 0
	for base := 0; base < in.Len(); base += tile {
		n := min(tile, in.Len()-base)
		f := frame{sc: sc, vals: in.Vals[base : base+n]}
		if len(in.Keys) != 0 {
			f.keys = in.Keys[base : base+n]
		}
		sel := ident[:n]
		if filter != nil {
			sel = sc.sels[0][:f.narrow(filter.pred, sel, sc.sels[0])]
		}
		at := len(out.Vals)
		out.Vals = slices.Grow(out.Vals, len(sel))[:at+len(sel)]
		dst := out.Vals[at:]
		if p.derive == nil {
			for j, s := range sel {
				dst[j] = f.vals[s]
			}
		} else {
			dv := f.eval(p.derive, sel)
			for j, s := range sel {
				x := dv[s]
				if !finite(x) {
					out.Vals = out.Vals[:at]
					return 0, badResultErr("derive", p.derive.src, in, base+int(s), x)
				}
				dst[j] = x
			}
		}
		switch {
		case p.groupKey:
			ka := len(out.Keys)
			out.Keys = slices.Grow(out.Keys, len(sel))[:ka+len(sel)]
			for j, s := range sel {
				out.Keys[ka+j] = f.keys[s]
			}
		case p.group != nil:
			gv := f.eval(p.group, sel)
			for j, s := range sel {
				x := gv[s]
				if !finite(x) {
					out.Vals, out.Keys = out.Vals[:at], out.Keys[:len(out.Keys)-j]
					return 0, badResultErr("group-by", p.group.src, in, base+int(s), x)
				}
				lbl, ok := sc.labels[math.Float64bits(x)]
				if !ok {
					lbl = strconv.FormatFloat(x, 'g', -1, 64)
					sc.labels[math.Float64bits(x)] = lbl
				}
				out.Keys = append(out.Keys, lbl)
			}
		}
		kept += len(sel)
	}
	return kept, nil
}

// KeepBlock returns the ascending indices of the records of one decoded
// block that pass σ — the pushdown hook the post-map pool fill uses, so
// a cached decoded block is filtered without re-decode (and without ever
// mutating the shared block). String predicates run once per dictionary
// entry, not per record. A program without a filter keeps every record.
//
// On a block a colscan.Cache handed out, the selection is memoized with
// the block under σ's canonical text (Block.Selection): the first fill
// of a block under a filter evaluates it, every later fill under any
// spelling of that filter reads it. The result is read-only: a memo is
// valid while b is held (a post-map pool retains it), any other result
// until sc's next KeepBlock.
// dst is not used; it stays only because bench/replay.go passes one.
func (p *Program) KeepBlock(sc *Scratch, b *colscan.Block, dst []int32) []int32 {
	if p.filter == nil {
		sc.keep = sc.keep[:0]
		for i := range b.NumRecords() {
			sc.keep = append(sc.keep, int32(i))
		}
		return sc.keep
	}
	return b.Selection(p.filter.canon, func() []int32 { return p.narrowBlock(sc, b) })
}

// narrowBlock evaluates σ over b's raw columns, a tile at a time, into
// sc.keep.
//
//earl:hotpath
func (p *Program) narrowBlock(sc *Scratch, b *colscan.Block) []int32 {
	vals, ids := b.Values(), b.KeyIDs()
	dst := slices.Grow(sc.keep[:0], len(vals))
	sc.fit(p.filter)
	sc.bindDict(p.filter, b.Dict())
	sel := sc.sels[0]
	for base := 0; base < len(vals); base += tile {
		n := min(tile, len(vals)-base)
		f := frame{sc: sc, vals: vals[base : base+n]}
		if ids != nil {
			f.ids = ids[base : base+n]
		}
		k := f.narrow(p.filter.pred, ident[:n], sel)
		at := len(dst)
		dst = dst[:at+k]
		for j, s := range sel[:k] {
			dst[at+j] = int32(base) + s
		}
	}
	sc.keep = dst
	return dst
}

// EvalRecord applies the plan to one raw record — the per-record
// reference path the kernels are checked against. Semantics match Apply
// bit for bit.
func (p *Program) EvalRecord(key string, v float64) (keep bool, outKey string, outVal float64, err error) {
	if p.filter != nil && p.filter.evalOne(key, v) == 0 {
		return false, "", 0, nil
	}
	outVal = v
	if p.derive != nil {
		outVal = p.derive.evalOne(key, v)
		if !finite(outVal) {
			return false, "", 0, fmt.Errorf("plan: derive %q produced non-finite %g (v=%g): %w",
				p.derive.src, outVal, v, colscan.ErrBadRecord)
		}
	}
	switch {
	case p.groupKey:
		outKey = key
	case p.group != nil:
		g := p.group.evalOne(key, v)
		if !finite(g) {
			return false, "", 0, fmt.Errorf("plan: group-by %q produced non-finite %g (v=%g): %w",
				p.group.src, g, v, colscan.ErrBadRecord)
		}
		outKey = strconv.FormatFloat(g, 'g', -1, 64)
	}
	return true, outKey, outVal, nil
}

// EvalLine parses one raw record line under the plan's input format and
// applies the plan — the line-at-a-time reference path, the oracle for
// a plan's exact answer.
func (p *Program) EvalLine(line string) (keep bool, outKey string, outVal float64, err error) {
	var k string
	var v float64
	if p.format == colscan.FormatKV {
		k, v, err = colscan.ParseKVString(line)
	} else {
		v, err = colscan.ParseValueString(line)
	}
	if err != nil {
		return false, "", 0, err
	}
	return p.EvalRecord(k, v)
}

func finite(x float64) bool {
	// x-x is 0 for finite x and NaN for ±Inf/NaN.
	return x-x == 0
}

// badResultErr renders the non-finite-result failure for the batch
// path, quoting the offending raw record.
func badResultErr(what, src string, in *colscan.Cols, i int, x float64) error {
	rec := strconv.FormatFloat(in.Vals[i], 'g', -1, 64)
	if i < len(in.Keys) {
		rec = in.Keys[i] + "\t" + rec
	}
	return fmt.Errorf("plan: %s %q produced non-finite %g (record %s): %w",
		what, src, x, colscan.Quote(rec), colscan.ErrBadRecord)
}
