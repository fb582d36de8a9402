package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder is the determinism analyzer for map iteration (the PR 2 bug
// class: grouped runs once derived per-key seeds and reducer arrival
// order from map-iteration creation order, so fixed-seed goldens were
// not bit-identical). In the non-test code of the result-producing
// packages (core, delta, live, mr, jobs, serve) it reports a `range`
// over a map whose body does order-sensitive work:
//
//   - appends to a slice declared outside the loop — unless that slice
//     is later passed to a sort call in the same function (the
//     collect-keys-then-sort idiom is the sanctioned fix);
//   - sends on a channel;
//   - feeds reducer state (Initialize / Update / Remove / Merge / Grow)
//     or derives seeds (hash writes, SplitRNG, seed-named callees).
//
// Commutative folds (summing into a scalar, writing back into the same
// map, taking a max) pass without annotation. A genuinely
// order-insensitive loop that still trips a trigger carries
// //earl:nondet-ok <reason>.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "range over a map must not feed order-sensitive sinks in " +
		"result-producing packages (sort keys first or justify with //earl:nondet-ok)",
	Run: runMapOrder,
}

// mapOrderPackages are the package names whose outputs reach reported
// results; map-iteration order anywhere on those paths breaks the
// bit-identical-goldens contract.
var mapOrderPackages = map[string]bool{
	"core": true, "delta": true, "live": true, "mr": true, "jobs": true, "serve": true,
}

// orderSensitiveCalls feed per-item state whose final value depends on
// arrival order (reducer folds, resample growth).
var orderSensitiveCalls = map[string]bool{
	"Initialize": true, "Update": true, "Remove": true, "Merge": true,
	"Grow": true,
}

func runMapOrder(pass *Pass) (any, error) {
	if !mapOrderPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncMapRanges(pass, fn)
			return true
		})
	}
	return nil, nil
}

func checkFuncMapRanges(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok || !isMapType(tv.Type) {
			return true
		}
		if pass.Suppressed(rng.Pos(), "nondet-ok") {
			return true
		}
		if reason, pos := mapRangeViolation(pass, fn, rng); reason != "" {
			pass.Reportf(pos, "map iteration order feeds %s: results become run-dependent; sort the keys first or annotate //earl:nondet-ok <reason>", reason)
		}
		return true
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// mapRangeViolation scans the loop body for the first order-sensitive
// operation, returning a description and its position ("" when clean).
func mapRangeViolation(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) (string, token.Pos) {
	var reason string
	var pos token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason, pos = "a channel send", n.Pos()
			return false
		case *ast.AssignStmt:
			if target, ok := appendToOuterSlice(pass, rng, n); ok {
				if !sliceSortedLater(pass, fn, rng, target) {
					reason, pos = "an append to a slice built across iterations", n.Pos()
					return false
				}
			}
		case *ast.CallExpr:
			if name, sensitive := sensitiveCall(pass, n); sensitive {
				reason, pos = "a call to "+name, n.Pos()
				return false
			}
		}
		return true
	})
	if reason != "" && pass.Suppressed(pos, "nondet-ok") {
		return "", pos
	}
	return reason, pos
}

// appendToOuterSlice matches `x = append(x, ...)` where x is declared
// outside the range statement, returning x's object.
func appendToOuterSlice(pass *Pass, rng *ast.RangeStmt, assign *ast.AssignStmt) (*types.Var, bool) {
	if len(assign.Rhs) != 1 {
		return nil, false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := pass.TypesInfo.Uses[base].(*types.Var)
	if !ok {
		return nil, false
	}
	// Declared inside the loop (e.g. a per-iteration buffer): ordering
	// cannot leak out through it.
	if rng.Pos() <= v.Pos() && v.Pos() < rng.End() {
		return nil, false
	}
	// Appends into a map entry's slice (groups[key] = append(...)) are
	// keyed per iteration — not an ordered accumulation. The ident base
	// restriction above already excludes index expressions.
	return v, true
}

// sliceSortedLater reports whether v is passed to a sort function after
// the range statement in the same function body — the
// collect-then-sort idiom.
func sliceSortedLater(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, v *types.Var) bool {
	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass.TypesInfo, call) || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if pass.TypesInfo.Uses[id] == v {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// sensitiveCall reports calls that fold per-item state order-
// sensitively or derive seeds.
func sensitiveCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if orderSensitiveCalls[name] {
		return name + " (order-sensitive state fold)", true
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "hash/fnv", "hash/maphash":
			return fn.Pkg().Name() + "." + name + " (seed derivation)", true
		}
	}
	if name == "SplitRNG" || containsFold(name, "seed") {
		return name + " (seed derivation)", true
	}
	// hash.Hash.Write inside a map range is the PR 2 seed-derivation
	// shape: the digest depends on iteration order.
	if name == "Write" && isHashWrite(pass.TypesInfo, call) {
		return "a hash Write (seed derivation)", true
	}
	return "", false
}

func isHashWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	path := NamedTypePath(tv.Type)
	return path != "" && (hasPrefix(path, "hash/") || hasPrefix(path, "hash."))
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
