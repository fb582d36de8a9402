// Package analysis is earlvet's static-analysis substrate: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API
// (Analyzer / Pass / Diagnostic) plus a module-aware package loader
// built on `go list` and the standard library's go/parser + go/types.
// The container this repo builds in has no module proxy access, so the
// x/tools framework itself cannot be vendored; the subset implemented
// here is shaped so the analyzers would port to the real framework by
// changing imports only.
//
// An analyzer earns its place by holding a rule no test can: a test
// checks the paths it runs, an analyzer every path of the introducing
// diff. The analyzers here encode EARL's four machine-checkable
// invariants — the ones that have each already produced a shipped bug:
//
//   - determinism: fixed-seed results are bit-identical at any
//     Parallelism (rngsource, maporder);
//   - zero steady-state allocation on the resampling hot path
//     (hotalloc);
//   - durability: dfs committed file state only changes through the
//     journaled commit path (journalcommit);
//   - ownership: a scan-cache block is given back by the function that
//     took it or by its holder's Release/Close, and never read after
//     (blockhold);
//
// plus the API hygiene rule that sentinel errors are matched with
// errors.Is (sentinelerr).
//
// Directives. Analyzers read `//earl:` comment directives:
//
//   - //earl:hotpath — marks a function whose loops hotalloc must keep
//     allocation-free (put it in the function's doc comment);
//   - //earl:nondet-ok <reason> — suppresses a maporder finding for the
//     annotated range statement;
//   - //earl:alloc-ok <reason> — suppresses a hotalloc finding on the
//     annotated line;
//   - //earl:rand-ok <reason> — suppresses an rngsource finding;
//   - //earl:commit-ok <reason> — suppresses a journalcommit finding.
//
// Every suppressing directive requires a reason; a bare directive is
// itself reported. A directive covers its own source line and the line
// directly below it, so both trailing and preceding comments work. Any
// other //earl: name is reported too, whichever analyzers run: a
// misspelled //earl:hotpath would otherwise exempt its kernel from
// hotalloc without a word.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// knownDirectives is every directive name an analyzer reads: the package
// comment's list, in its order (keep the two in step). Run reports any
// other name.
var knownDirectives = []string{"hotpath", "nondet-ok", "alloc-ok", "rand-ok", "commit-ok"}

// An Analyzer describes one earlvet check.
type Analyzer struct {
	// Name is the analyzer's command-line name (lower case, no spaces).
	Name string
	// Doc is the one-paragraph description `earlvet -list` prints.
	Doc string
	// Run applies the analyzer to one package and reports findings via
	// pass.Report. The returned value is unused today (the real
	// framework threads it to dependent analyzers) but kept for API
	// compatibility.
	Run func(pass *Pass) (any, error)
}

// A Pass holds one analyzed package and collects the diagnostics an
// analyzer reports against it.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string // parallel to Files
	Pkg       *types.Package
	TypesInfo *types.Info
	// IsTest marks package units that include _test.go files.
	IsTest bool

	diagnostics []Diagnostic
	directives  map[*ast.File]fileDirectives
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name, filled by the driver
	Message  string
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	if d.Category == "" && p.Analyzer != nil {
		d.Category = p.Analyzer.Name
	}
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, in file/position
// order.
func (p *Pass) Diagnostics() []Diagnostic {
	ds := append([]Diagnostic(nil), p.diagnostics...)
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Pos < ds[j].Pos })
	return ds
}

// FileFor returns the *ast.File containing pos (nil when pos is not in
// this package unit).
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// FilenameFor returns the file name of the unit file containing pos.
func (p *Pass) FilenameFor(pos token.Pos) string {
	for i, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return p.Filenames[i]
		}
	}
	return ""
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers
// whose invariants only bind library code (rngsource, maporder,
// hotalloc) skip such positions; sentinelerr deliberately does not.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.FilenameFor(pos), "_test.go")
}

// ---------------------------------------------------------------------
// //earl: directives.

// DirectivePrefix is the comment marker all earlvet directives share.
const DirectivePrefix = "//earl:"

// A Directive is one parsed //earl:<name> <args> comment.
type Directive struct {
	Name string // e.g. "nondet-ok"
	Args string // rest of the line, trimmed
	Pos  token.Pos
}

type fileDirectives struct {
	// byLine maps a source line to the directives covering it: a
	// directive on line L covers L (trailing comment) and L+1
	// (preceding comment).
	byLine map[int][]Directive
}

func (p *Pass) fileDirs(f *ast.File) fileDirectives {
	if d, ok := p.directives[f]; ok {
		return d
	}
	fd := fileDirectives{byLine: map[int][]Directive{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := p.Fset.Position(c.Pos()).Line
			fd.byLine[line] = append(fd.byLine[line], d)
			fd.byLine[line+1] = append(fd.byLine[line+1], d)
		}
	}
	if p.directives == nil {
		p.directives = map[*ast.File]fileDirectives{}
	}
	p.directives[f] = fd
	return fd
}

// DirectiveAt returns the //earl:<name> directive covering pos's line
// (the directive's own line or the line above), if any.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	f := p.FileFor(pos)
	if f == nil {
		return Directive{}, false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range p.fileDirs(f).byLine[line] {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// Suppressed reports whether a finding at pos is suppressed by the
// given directive. A directive with an empty reason does not suppress:
// it is reported instead, so every suppression in the tree documents
// why the invariant does not apply.
func (p *Pass) Suppressed(pos token.Pos, directive string) bool {
	d, ok := p.DirectiveAt(pos, directive)
	if !ok {
		return false
	}
	if d.Args == "" {
		p.Reportf(d.Pos, "//earl:%s directive needs a reason", directive)
		// Report the bare directive once, but still suppress the
		// underlying finding so the fix is "write the reason", not two
		// interleaved complaints.
	}
	return true
}

// FuncDirective reports whether decl's doc comment carries the given
// //earl: directive (e.g. hotpath).
func FuncDirective(decl *ast.FuncDecl, name string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if d, ok := parseDirective(c); ok && d.Name == name {
			return true
		}
	}
	return false
}

// parseDirective parses c as an //earl:<name> <args> directive.
func parseDirective(c *ast.Comment) (Directive, bool) {
	rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
	if !ok {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(rest, " ")
	return Directive{Name: strings.TrimSpace(name), Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// unknownDirectives reports every directive in f whose name is not in
// knownDirectives.
func unknownDirectives(f *ast.File) []Diagnostic {
	var out []Diagnostic
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok && !slices.Contains(knownDirectives, d.Name) {
				out = append(out, Diagnostic{
					Pos:      d.Pos,
					Category: "directive",
					Message: fmt.Sprintf("unknown directive //earl:%s: no analyzer reads it (known: %s)",
						d.Name, strings.Join(knownDirectives, ", ")),
				})
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Shared type/AST helpers.

// IsPkgFunc reports whether the called function of call is the
// package-level function pkgPath.name, resolved through the type
// checker (so aliased imports and shadowed identifiers are handled).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name && !isMethod(fn)
}

// CalleeFunc resolves the *types.Func a call invokes (nil for calls of
// function-typed values, conversions and builtins).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// CalleePkgPath returns the defining package path of the called
// function or method ("" when unresolved).
func CalleePkgPath(info *types.Info, call *ast.CallExpr) string {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// NamedTypePath returns "pkgpath.Name" for t's core named type,
// dereferencing one pointer ("" for unnamed types).
func NamedTypePath(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// IsPointerShaped reports whether converting a value of type t to an
// interface stores the value directly in the interface word — i.e. the
// conversion cannot allocate. Everything else (numbers, strings,
// slices, structs, ...) is boxed on the heap.
func IsPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}
