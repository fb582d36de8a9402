package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SentinelErr enforces errors.Is for sentinel-error matching. The
// repo's public errors (bootstrap.ErrTooFewResamples, mr.ErrBadState,
// serve.ErrOverloaded, dfs.ErrNotFound, ...) are routinely wrapped with
// %w as they cross package boundaries — the driver wraps resample
// errors, the HTTP layer wraps engine errors — so an identity
// comparison silently stops matching the moment a wrapping layer is
// added. The analyzer reports ==/!= where either operand is a
// package-level error variable named Err* (nil comparisons stay fine).
// It checks test files too: assertions are where identity comparisons
// actually accumulate.
var SentinelErr = &Analyzer{
	Name: "sentinelerr",
	Doc:  "sentinel errors must be matched with errors.Is, never == or !=",
	Run:  runSentinelErr,
}

func runSentinelErr(pass *Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op.String() != "==" && bin.Op.String() != "!=") {
				return true
			}
			var other ast.Expr
			if isSentinelErrVar(pass.TypesInfo, bin.X) {
				other = bin.Y
			} else if isSentinelErrVar(pass.TypesInfo, bin.Y) {
				other = bin.X
			} else {
				return true
			}
			if isNilIdent(pass.TypesInfo, other) {
				return true
			}
			pass.Reportf(bin.Pos(), "sentinel error compared with %s: wrapped errors will not match; use errors.Is", bin.Op)
			return true
		})
	}
	return nil, nil
}

// isSentinelErrVar reports whether expr resolves to a package-level
// variable of an error type whose name starts with "Err".
func isSentinelErrVar(info *types.Info, expr ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	// Package-level: declared directly in the package scope.
	if v.Pkg().Scope().Lookup(v.Name()) != v {
		return false
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return false
	}
	return implementsError(v.Type())
}

func implementsError(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if ok {
		// `error` itself or an interface embedding it.
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Error" {
				return true
			}
		}
		return false
	}
	// Concrete type with an Error() string method.
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Error" {
			return true
		}
	}
	return false
}

func isNilIdent(info *types.Info, expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
