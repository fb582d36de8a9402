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
// filesystem, and pinned snapshots could observe half-applied
// mutations.
//
// Concretely, in packages named "dfs" (non-test files), it reports
// assignments — including compound assignment, ++/-- and delete() —
// that target
//
//   - a field of fileMeta, chainVersion or fileChain, or
//   - the FileSystem.files version-chain map,
//
// outside a function whose name starts with "apply". Committed state is
// published through atomic pointers (FileSystem.files, the path map,
// and fileChain.versions, a path's version list), so a publish — a
// Store, Swap or CompareAndSwap on either — is the same mutation and
// reported the same way, as is writing through the map or list a Load
// returned. The fileMeta sidecar field is exempt: it is derived
// columnar state, rebuildable from the file bytes and deliberately
// never journaled (Compact replaces it). Constructing a fresh fileMeta
// literal is likewise fine anywhere — only mutation of installed state
// is the hazard.
//
// //earl:commit-ok <reason> on the offending line suppresses a finding.
var JournalCommit = &Analyzer{
	Name: "journalcommit",
	Doc: "dfs committed file state (fileMeta/fileChain/files) may only be " +
		"mutated inside the commit path's apply* helpers, so the journal " +
		"stays the single source of truth for crash recovery",
	Run: runJournalCommit,
}

// committedFields lists, per committed-state struct, the fields whose
// mutation must be journaled. fileMeta.sidecar is absent by design.
var committedFields = map[string]map[string]bool{
	"fileMeta":     {"size": true, "blocks": true, "segments": true, "version": true},
	"chainVersion": {"seq": true, "meta": true},
	"fileChain":    {"versions": true},
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
			// delete(fs.files, path) removes a version chain.
			if id, ok := ast.Unparen(stmt.Fun).(*ast.Ident); ok && id.Name == "delete" && len(stmt.Args) > 0 {
				if isFilesMap(pass.TypesInfo, stmt.Args[0]) {
					reportCommitFinding(pass, fd, stmt.Pos(), "the FileSystem.files chain map")
				}
			}
			// fs.files.Store(&next), ch.versions.Store(&kept): a publish.
			if method, ok := ast.Unparen(stmt.Fun).(*ast.SelectorExpr); ok && publishMethods[method.Sel.Name] {
				if what := publishedState(pass.TypesInfo, method.X); what != "" {
					reportCommitFinding(pass, fd, stmt.Pos(), what)
				}
			}
		}
		return true
	})
}

// reportCommittedTarget reports lhs if it mutates committed state: a
// journaled field of a committed-state struct, or an entry of the
// FileSystem.files map.
func reportCommittedTarget(pass *Pass, fd *ast.FuncDecl, lhs ast.Expr) {
	switch target := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		owner, field := selectorField(pass.TypesInfo, target)
		if fields, ok := committedFields[owner]; ok && fields[field.Name()] {
			reportCommitFinding(pass, fd, target.Pos(), owner+"."+field.Name())
		}
	case *ast.IndexExpr:
		if isFilesMap(pass.TypesInfo, target.X) {
			reportCommitFinding(pass, fd, target.Pos(), "the FileSystem.files chain map")
		}
	}
}

// publishMethods are the sync/atomic methods that replace what a
// published pointer holds.
var publishMethods = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

// publishedState names the committed state the atomic pointer expr
// publishes — FileSystem.files or fileChain.versions — or returns "".
func publishedState(info *types.Info, expr ast.Expr) string {
	if isFilesMap(info, expr) {
		return "the FileSystem.files chain map"
	}
	if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok {
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

// isFilesMap reports whether expr is the files field of a FileSystem —
// the committed version-chain namespace — or the map a Load of it
// returned (*fs.files.Load()).
func isFilesMap(info *types.Info, expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	if star, ok := expr.(*ast.StarExpr); ok {
		call, ok := ast.Unparen(star.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		load, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || load.Sel.Name != "Load" {
			return false
		}
		expr = ast.Unparen(load.X)
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	owner, field := selectorField(info, sel)
	return owner == "FileSystem" && field != nil && field.Name() == "files"
}
