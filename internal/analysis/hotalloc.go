package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc is the allocation analyzer for the resampling hot path (the
// PR 5 bug class: delta maintenance boxed one float64 per item into the
// reducer's `any` Update parameter — 371k allocations per Grow). It is
// the static complement of the allocation-budget tests
// (delta.TestMaintainerGrowSteadyStateAllocs and its kin): a test
// catches a regression on the paths it runs, this catches the
// introducing diff on every annotated kernel.
//
// Functions annotated //earl:hotpath (in the doc comment) must keep
// their loops free of per-iteration allocation:
//
//   - implicit interface conversions of non-pointer-shaped values
//     (boxing) in call arguments, assignments, appends, composite
//     literals and map index values;
//   - fmt.* calls — except inside a return statement or a panic
//     argument, which execute at most once per call;
//   - map composite literals and make(map[...]);
//   - function literals (a closure allocated every iteration).
//
// //earl:alloc-ok <reason> on the offending line suppresses a finding
// (e.g. a conversion proven amortised by a pooling layer).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "//earl:hotpath functions must not allocate per loop iteration " +
		"(boxing, fmt, map literals, closures)",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) (any, error) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !FuncDirective(fn, "hotpath") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil, nil
}

// checkHotFunc walks fn's body tracking loop nesting; violations are
// only reported inside loops (per-iteration cost).
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt:
			if n.Init != nil {
				walk(n.Init, inLoop)
			}
			if n.Cond != nil {
				walk(n.Cond, inLoop)
			}
			if n.Post != nil {
				walk(n.Post, true)
			}
			walk(n.Body, true)
			return
		case *ast.RangeStmt:
			walk(n.X, inLoop)
			walk(n.Body, true)
			return
		case *ast.FuncLit:
			if inLoop {
				if !pass.Suppressed(n.Pos(), "alloc-ok") {
					pass.Reportf(n.Pos(), "closure allocated per loop iteration in hotpath function %s", fn.Name.Name)
				}
			}
			// A nested closure body starts its own loop context.
			walk(n.Body, false)
			return
		case *ast.ReturnStmt:
			// Executes at most once per call: allocation here is not
			// per-iteration (the `return fmt.Errorf(...)` error path).
			return
		case *ast.CallExpr:
			if inLoop {
				checkHotCall(pass, fn, n)
			}
			if isPanicCall(pass.TypesInfo, n) {
				return // at most once per call, like return
			}
		case *ast.CompositeLit:
			if inLoop {
				if tv, ok := pass.TypesInfo.Types[n]; ok && isMapType(tv.Type) {
					if !pass.Suppressed(n.Pos(), "alloc-ok") {
						pass.Reportf(n.Pos(), "map literal allocated per loop iteration in hotpath function %s", fn.Name.Name)
					}
				}
			}
		case *ast.AssignStmt:
			if inLoop {
				checkHotAssign(pass, fn, n)
			}
		}
		// Generic recursion.
		cur := n
		ast.Inspect(cur, func(child ast.Node) bool {
			if child == cur {
				return true
			}
			walk(child, inLoop)
			return false
		})
	}
	walk(fn.Body, false)
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// checkHotCall reports fmt calls, make(map), and boxing call arguments.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	if CalleePkgPath(pass.TypesInfo, call) == "fmt" {
		if !pass.Suppressed(call.Pos(), "alloc-ok") {
			pass.Reportf(call.Pos(), "fmt call per loop iteration in hotpath function %s", fn.Name.Name)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && isMapType(tv.Type) {
				if !pass.Suppressed(call.Pos(), "alloc-ok") {
					pass.Reportf(call.Pos(), "make(map) per loop iteration in hotpath function %s", fn.Name.Name)
				}
			}
		}
		return
	}
	// Boxing: a concrete, non-pointer-shaped argument passed to an
	// interface parameter.
	fnType := calleeSignature(pass.TypesInfo, call)
	if fnType == nil {
		return
	}
	params := fnType.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case fnType.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1)
			if slice, ok := last.Type().(*types.Slice); ok {
				paramType = slice.Elem()
			}
			if call.Ellipsis.IsValid() {
				paramType = last.Type() // xs... passes the slice itself
			}
		case i < params.Len():
			paramType = params.At(i).Type()
		}
		reportBoxing(pass, fn, arg, paramType, "argument")
	}
}

// checkHotAssign reports boxing assignments into interface-typed
// variables (including append into []any and map[_]any index writes).
func checkHotAssign(pass *Pass, fn *ast.FuncDecl, assign *ast.AssignStmt) {
	n := len(assign.Lhs)
	if len(assign.Rhs) != n {
		return // multi-value RHS: conversions happen in the callee's returns
	}
	for i := 0; i < n; i++ {
		var lhsType types.Type
		if tv, ok := pass.TypesInfo.Types[assign.Lhs[i]]; ok {
			lhsType = tv.Type
		} else if id, ok := assign.Lhs[i].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				lhsType = obj.Type()
			}
			// Defs (`:=` declarations) take their type from the RHS:
			// no conversion happens.
		}
		if lhsType == nil {
			continue
		}
		reportBoxing(pass, fn, assign.Rhs[i], lhsType, "assignment")
	}
}

func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	if tv.IsType() {
		return nil // conversion, handled by reportBoxing at use sites
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// reportBoxing reports when expr (of concrete, non-pointer-shaped type)
// is converted to the interface type target.
func reportBoxing(pass *Pass, fn *ast.FuncDecl, expr ast.Expr, target types.Type, what string) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	if _, alreadyIface := tv.Type.Underlying().(*types.Interface); alreadyIface {
		return
	}
	if IsPointerShaped(tv.Type) {
		return
	}
	if pass.Suppressed(expr.Pos(), "alloc-ok") {
		return
	}
	pass.Reportf(expr.Pos(),
		"%s boxes %s into %s per loop iteration in hotpath function %s (the PR 5 allocs/op bug class); batch into a slice and apply once per generation",
		what, tv.Type.String(), target.String(), fn.Name.Name)
}
