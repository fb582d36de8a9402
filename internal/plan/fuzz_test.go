package plan

import (
	"math"
	"testing"
)

// FuzzExprEval is the expression-language oracle check: any expression
// the parser accepts must evaluate bit-identically on the tiled
// selection-vector evaluator (vm.go) and the per-record reference tree
// walk (eval.go) through both entry points — KeepBlock over a
// dictionary-coded block and Apply over a string-keyed batch, see
// checkAgainstReference — and the canonical printer must be a fixed
// point (print(parse(print)) == print). Wired into the CI fuzz smoke
// next to the order-statistic and decoder targets.
func FuzzExprEval(f *testing.F) {
	f.Add("v > 1 && key == \"a\"", 1.5, "a")
	f.Add("v * 2 + 1", -3.25, "")
	f.Add("abs(v - 10) / max(v, 1e-9)", 0.0, "")
	f.Add("!(v/v > 0) || key != \"g\"", 0.0, "g")
	f.Add("min(v, 2) - floor(v) * ceil(v + 0.5)", 7.125, "x")
	f.Add("log(v) <= exp(1) == (sqrt(v) != 2)", 16.0, "")
	f.Add("-(-v) - -1e300 * 1e300", 2.0, "")
	f.Add("\"a\" == \"b\" || key == key", 1.0, "b")
	f.Add("v / 0 > 1 || sqrt(v - 50) >= 0", 51.0, "")
	f.Add("v > 1 && (!(key == \"a\") || v * v > 50 && key != \"b\")", 9.0, "b")
	f.Add("3 - v < 1 / v && 20 < v", 25.0, "")
	f.Fuzz(func(t *testing.T, src string, v float64, key string) {
		if len(src) > 256 {
			return // depth/latency bound; real expressions are short
		}
		root, err := parseExpr(src)
		if err != nil {
			return
		}
		k, err := checkKind(src, root)
		if err != nil {
			return
		}
		// Canonical printing is a fixed point and preserves the tree.
		p1 := printExpr(root)
		n2, err := parseExpr(p1)
		if err != nil {
			t.Fatalf("canonical print %q of %q does not reparse: %v", p1, src, err)
		}
		if p2 := printExpr(n2); p2 != p1 {
			t.Fatalf("print not canonical: %q -> %q -> %q", src, p1, p2)
		}

		what := "derive"
		if k == kBool {
			what = "filter"
		}
		if k == kStr {
			return // a bare string expression compiles under no operator
		}
		c, err := compileExpr(src, k, what)
		if err != nil {
			t.Fatalf("checked expression %q failed to compile: %v", src, err)
		}

		// The reference walk runs on the reparsed tree, so the printer
		// is held to preserving semantics too.
		c.root = n2
		p := &Program{filter: c}
		if k == kNum {
			p = &Program{derive: c, group: c}
		}
		// Records mixing the fuzzed one with fixed probes (NaN/Inf
		// producers, negatives, zero) and varying keys, cycled across
		// a tile boundary. Decoded values are always finite.
		if !finite(v) {
			v = 0
		}
		vals, keys := cycle(tile+1,
			[]float64{v, 0, -1, 1, 2.5, math.MaxFloat64, -v},
			[]string{key, "", "a", key + "x", "g", key, "b"})
		checkAgainstReference(t, p, vals, keys)
	})
}
