package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// JournalCommit is the durability analyzer for the dfs commit path
// (the PR 10 invariant): every mutation of committed file state must
// flow through commitLocked, which journals the operation before
// dispatching to an apply* helper. State mutated anywhere else would
// exist in memory but not in the commit journal — a crash-recovery
// replay (dfs.Recover) would silently reconstruct a different
// filesystem, and held snapshots could observe half-applied mutations.
//
// Concretely, in packages named "dfs" (non-test files), it reports
// assignments — including compound assignment, ++/-- and delete() —
// that target
//
//   - a journaled field of fileMeta or a field of namespace, or an
//     element of one (an entry of a namespace's files map), or
//   - the FileSystem.ns pointer,
//
// outside a function whose name starts with "apply". A commit publishes
// its namespace through the atomic pointer FileSystem.ns, so a publish —
// a Store, Swap or CompareAndSwap on it — is the same mutation and
// reported the same way. The fileMeta sidecar field is exempt: it is
// derived columnar state, rebuildable from the file bytes and
// deliberately never journaled (Compact replaces it). Constructing a
// fresh fileMeta or namespace literal is likewise fine anywhere — only
// mutation of installed state is the hazard.
//
// //earl:commit-ok <reason> on the offending line suppresses a finding.
var JournalCommit = &Analyzer{
	Name: "journalcommit",
	Doc: "dfs committed file state (fileMeta/namespace/FileSystem.ns) may only be " +
		"mutated inside the commit path's apply* helpers, so the journal " +
		"stays the single source of truth for crash recovery",
	Run: runJournalCommit,
}

// committedFields lists, per committed-state struct, the fields whose
// mutation must be journaled. fileMeta.sidecar is absent by design.
var committedFields = map[string]map[string]bool{
	"fileMeta":   {"size": true, "blocks": true, "segments": true, "version": true},
	"namespace":  {"seq": true, "files": true},
	"FileSystem": {"ns": true},
}

func runJournalCommit(pass *Pass) (any, error) {
	if pass.Pkg.Name() != "dfs" {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasPrefix(fd.Name.Name, "apply") {
				continue
			}
			checkCommitMutations(pass, fd)
		}
	}
	return nil, nil
}

// checkCommitMutations walks one non-apply function body and reports
// every mutation of committed state it finds.
func checkCommitMutations(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				reportCommittedTarget(pass, fd, lhs)
			}
		case *ast.IncDecStmt:
			reportCommittedTarget(pass, fd, stmt.X)
		case *ast.CallExpr:
			// delete(ns.files, path) unbinds a path.
			if id, ok := ast.Unparen(stmt.Fun).(*ast.Ident); ok && id.Name == "delete" && len(stmt.Args) > 0 {
				reportCommittedTarget(pass, fd, stmt.Args[0])
			}
			// fs.ns.Store(next): a publish.
			if method, ok := ast.Unparen(stmt.Fun).(*ast.SelectorExpr); ok && publishMethods[method.Sel.Name] {
				reportCommittedTarget(pass, fd, method.X)
			}
		}
		return true
	})
}

// reportCommittedTarget reports target if it is committed state: a
// journaled field of a committed-state struct, or an element of one.
func reportCommittedTarget(pass *Pass, fd *ast.FuncDecl, target ast.Expr) {
	target = ast.Unparen(target)
	if index, ok := target.(*ast.IndexExpr); ok {
		target = ast.Unparen(index.X)
	}
	if what := committedField(pass.TypesInfo, target); what != "" {
		reportCommitFinding(pass, fd, target.Pos(), what)
	}
}

// publishMethods are the sync/atomic methods that replace what a
// published pointer holds.
var publishMethods = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

// committedField names the committed state expr selects — "owner.field"
// for a field committedFields lists — or returns "".
func committedField(info *types.Info, expr ast.Expr) string {
	if sel, ok := expr.(*ast.SelectorExpr); ok {
		if owner, field := selectorField(info, sel); field != nil && committedFields[owner][field.Name()] {
			return owner + "." + field.Name()
		}
	}
	return ""
}

func reportCommitFinding(pass *Pass, fd *ast.FuncDecl, pos token.Pos, what string) {
	if pass.Suppressed(pos, "commit-ok") {
		return
	}
	pass.Reportf(pos,
		"%s mutates %s outside the commit path; journal the mutation through commitLocked and apply it in an apply* helper, or recovery replay diverges",
		fd.Name.Name, what)
}

// selectorField resolves sel to (owning struct type name, field object),
// dereferencing one pointer. Returns ("", nil) for non-field selectors.
func selectorField(info *types.Info, sel *ast.SelectorExpr) (string, *types.Var) {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", nil
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return "", nil
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", nil
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", nil
	}
	return named.Obj().Name(), field
}
