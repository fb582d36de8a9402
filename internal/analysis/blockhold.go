package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockHold is the ownership analyzer for decoded scan-cache blocks. A
// colscan.Block the cache hands out carries a hold, and once the last
// hold on a block the cache has dropped is released, its column arrays
// are recycled into the next miss's block: a read through the block, or
// through a column slice taken from it, after its release returns
// another block's records. Tests see the reads they run; this sees
// every release.
//
// In non-test files, a Release of a colscan.Block is legal in two
// places only:
//
//   - the function that took the hold: the block is a local variable of
//     that function (a Load, a Peek, a helper's result, or an element of
//     a local slice of them), not stored into a field or another
//     non-local place before the release, and neither it nor a slice
//     taken from its Values or KeyIDs is used after the release;
//   - the Release or Close method of a type with a field that stores
//     blocks: the holder gives back what it kept.
//
// Any other Release is reported, and so is each use after one. "After"
// follows the statements that can run next: a release in a branch that
// ends in return, break or continue does not reach the statements past
// the branch, and a deferred release runs after everything.
var BlockHold = &Analyzer{
	Name: "blockhold",
	Doc: "a scan-cache block (colscan.Block) is released by the function that took it after its " +
		"last use, or by the Release/Close method of the type that stores it — never used after",
	Run: runBlockHold,
}

func runBlockHold(pass *Pass) (any, error) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBlockReleases(pass, fd)
			}
		}
	}
	return nil, nil
}

// isBlock reports whether t is colscan.Block or a pointer to it.
func isBlock(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Block" && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "colscan"
}

// blockRelease returns the block expression x of a call x.Release() on a
// colscan.Block, nil for any other call.
func blockRelease(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	if tv, ok := info.Types[sel.X]; ok && isBlock(tv.Type) {
		return sel.X
	}
	return nil
}

func checkBlockReleases(pass *Pass, fd *ast.FuncDecl) {
	holder := isHolderMethod(pass.TypesInfo, fd)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || holder {
			return true
		}
		if x := blockRelease(pass.TypesInfo, call); x != nil {
			checkRelease(pass, fd, call, x, stack)
		}
		return true
	})
}

// isHolderMethod reports whether fd is a Release or Close method of a
// struct type with a field that stores blocks.
func isHolderMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || (fd.Name.Name != "Release" && fd.Name.Name != "Close") {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := range st.NumFields() {
		if storesBlocks(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// storesBlocks reports whether t holds blocks: a block pointer, or a
// slice, array or map of them.
func storesBlocks(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return storesBlocks(u.Elem())
	case *types.Array:
		return storesBlocks(u.Elem())
	case *types.Map:
		return storesBlocks(u.Elem())
	}
	return isBlock(t)
}

// rootIdent strips indexing and parentheses off x down to the variable
// it reads (nil when x reaches through a field or a call).
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			return e
		case *ast.IndexExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// localVar returns the variable id names if it is declared inside fd's
// body (not a parameter, a receiver or a package-level variable).
func localVar(info *types.Info, fd *ast.FuncDecl, id *ast.Ident) *types.Var {
	if id == nil {
		return nil
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || v.Pos() < fd.Body.Pos() || v.Pos() >= fd.Body.End() {
		return nil
	}
	return v
}

// checkRelease checks one release call of block expression x; stack is
// the path from fd's body down to the call.
func checkRelease(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, x ast.Expr, stack []ast.Node) {
	info := pass.TypesInfo
	v := localVar(info, fd, rootIdent(x))
	if v == nil {
		pass.Reportf(call.Pos(), "Release of a block this function did not take: a hold is given back by the function that took it or by the Release/Close method of the type storing it")
		return
	}
	if at := storedBefore(info, fd, v, call.Pos()); at != nil {
		pass.Reportf(call.Pos(), "Release of %s after it was stored at %s: the Release/Close method of the type storing it gives it back", v.Name(), pass.Fset.Position(at.Pos()))
		return
	}
	if _, plain := ast.Unparen(x).(*ast.Ident); !plain || deferred(stack) {
		return
	}
	tracked := map[*types.Var]bool{v: true}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if id := rootIdent(as.Lhs[i]); id != nil && takesColumn(info, rhs, v) {
					if cv, ok := info.ObjectOf(id).(*types.Var); ok {
						tracked[cv] = true
					}
				}
			}
		}
		return true
	})
	after, loops := afterRegion(stack)
	for _, st := range after {
		inspectReads(info, st, tracked, func(id *ast.Ident, uv *types.Var) {
			if !rebound(info, fd, uv, call.End(), id.Pos()) {
				reportUse(pass, call, id)
			}
		})
	}
	// The next iteration of a loop around the release runs the body's
	// statements before it again: a variable declared outside the loop,
	// and not rebound after the release or before the use, reads the
	// released block there.
	for _, loop := range loops {
		body := loopBody(loop)
		inspectReads(info, body, tracked, func(id *ast.Ident, uv *types.Var) {
			if id.Pos() < call.Pos() && (uv.Pos() < loop.Pos() || uv.Pos() >= loop.End()) &&
				!rebound(info, fd, uv, call.End(), body.End()) && !rebound(info, fd, uv, body.Pos(), id.Pos()) {
				reportUse(pass, call, id)
			}
		})
	}
}

// inspectReads calls read for each identifier under n that reads a
// tracked variable; assigning to a plain variable does not read it.
func inspectReads(info *types.Info, n ast.Node, tracked map[*types.Var]bool, read func(*ast.Ident, *types.Var)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, rhs := range as.Rhs {
				inspectReads(info, rhs, tracked, read)
			}
			for _, lhs := range as.Lhs {
				if _, ok := lhs.(*ast.Ident); !ok { // an element or field store reads its root
					inspectReads(info, lhs, tracked, read)
				}
			}
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if uv, ok := info.Uses[id].(*types.Var); ok && tracked[uv] {
				read(id, uv)
			}
		}
		return true
	})
}

// reportUse reports id, a read of the block released by call.
func reportUse(pass *Pass, call *ast.CallExpr, id *ast.Ident) {
	pass.Reportf(id.Pos(), "%s used after its block's Release at %s", id.Name, pass.Fset.Position(call.Pos()))
}

// takesColumn reports whether e is v.Values() or v.KeyIDs(), possibly
// resliced: a column slice shared with v's block.
func takesColumn(info *types.Info, e ast.Expr, v *types.Var) bool {
	if s, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		e = s.X
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Values" && sel.Sel.Name != "KeyIDs") {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == v
}

// storedBefore returns the first assignment before pos that stores v
// somewhere outside fd's locals (a field, a non-local slice or map), nil
// if there is none.
func storedBefore(info *types.Info, fd *ast.FuncDecl, v *types.Var, pos token.Pos) ast.Node {
	var at ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if at != nil || !ok || as.Pos() >= pos || len(as.Lhs) != len(as.Rhs) {
			return at == nil
		}
		for i, lhs := range as.Lhs {
			id := rootIdent(lhs)
			if (id == nil || id.Name != "_" && localVar(info, fd, id) == nil) && mentions(info, as.Rhs[i], v) {
				at = as
			}
		}
		return at == nil
	})
	return at
}

// mentions reports whether e reads v.
func mentions(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// rebound reports whether v is assigned anew between from and to, so a
// use at to reads a later value than the released block.
func rebound(info *types.Info, fd *ast.FuncDecl, v *types.Var, from, to token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Pos() >= from && as.End() <= to {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.Uses[id] == v {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// deferred reports whether the call at the end of stack runs at function
// exit: in a defer statement, or in a function literal one defers.
func deferred(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// afterRegion returns what can run after the call at the end of stack:
// the rest of each enclosing statement list, innermost first, up to the
// first list that ends the flow (a return, break, continue or goto after
// the call), and the loops around the call whose next iteration the flow
// comes back to. It never climbs past an enclosing function literal.
func afterRegion(stack []ast.Node) (after []ast.Stmt, loops []ast.Stmt) {
	for i := len(stack) - 1; i > 0; i-- {
		var list []ast.Stmt
		switch p := stack[i-1].(type) {
		case *ast.BlockStmt:
			list = p.List
		case *ast.CaseClause:
			list = p.Body
		case *ast.CommClause:
			list = p.Body
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, p.(ast.Stmt))
			continue
		case *ast.FuncLit:
			return after, loops
		default:
			continue
		}
		child := stack[i]
		for _, st := range list {
			if st.End() <= child.Pos() || st == child {
				continue
			}
			after = append(after, st)
			switch st := st.(type) {
			case *ast.ReturnStmt:
				return after, loops
			case *ast.BranchStmt:
				if st.Tok == token.CONTINUE && st.Label == nil {
					loops = append(loops, innermostLoop(stack[:i])...)
				}
				return after, loops
			}
		}
	}
	return after, loops
}

// loopBody returns the body of loop, a for or range statement.
func loopBody(loop ast.Stmt) *ast.BlockStmt {
	if f, ok := loop.(*ast.ForStmt); ok {
		return f.Body
	}
	return loop.(*ast.RangeStmt).Body
}

// innermostLoop returns the last for or range statement on stack, up to
// an enclosing function literal (none if there is none).
func innermostLoop(stack []ast.Node) []ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return []ast.Stmt{n.(ast.Stmt)}
		case *ast.FuncLit:
			return nil
		}
	}
	return nil
}
