package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one analyzed package unit: either a package's library
// files, the library+test-file variant, or an external _test package.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
	IsTest    bool
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath    string
	Name          string
	Dir           string
	Standard      bool
	DepOnly       bool
	GoFiles       []string
	TestGoFiles   []string
	XTestGoFiles  []string
	Imports       []string
	TestImports   []string
	XTestImports  []string
	InvalidReason string `json:"Error,omitempty"` // unused; presence tolerated
}

// Loader loads and type-checks the module's packages without any
// dependency beyond the go command and the standard library: module
// packages are parsed and checked from source in dependency order, and
// standard-library imports are delegated to go/importer's source
// importer (which works offline).
type Loader struct {
	Dir  string // module root (where go list runs); "" = current dir
	Fset *token.FileSet

	std     types.Importer
	listed  map[string]*listPkg
	base    map[string]*Package // import path -> library unit
	loading map[string]bool
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Dir:     dir,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		listed:  map[string]*listPkg{},
		base:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Load lists patterns (e.g. "./..."), type-checks every matched module
// package and returns the units to analyze in deterministic order. With
// tests set, each package with test files additionally yields its
// test-augmented variant and any external _test package.
func (l *Loader) Load(patterns []string, tests bool) ([]*Package, error) {
	roots, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range roots {
		lp := l.listed[path]
		if len(lp.GoFiles) > 0 {
			pkg, err := l.pkg(path)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
		if !tests {
			continue
		}
		// An external _test package imports the package as its in-package
		// test files augment it (export_test.go), exactly as go test
		// builds it.
		var augmented map[string]*types.Package
		if len(lp.TestGoFiles) > 0 {
			tp, err := l.check(path, lp.Name, lp.Dir,
				append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...), nil)
			if err != nil {
				return nil, err
			}
			tp.IsTest = true
			out = append(out, tp)
			augmented = map[string]*types.Package{path: tp.Types}
		}
		if len(lp.XTestGoFiles) > 0 {
			if augmented != nil {
				if err := l.testVariants(path, augmented, lp.XTestImports); err != nil {
					return nil, err
				}
			}
			xp, err := l.check(path+"_test", lp.Name+"_test", lp.Dir, lp.XTestGoFiles, augmented)
			if err != nil {
				return nil, err
			}
			xp.IsTest = true
			out = append(out, xp)
		}
	}
	return out, nil
}

// testVariants re-checks against path's test-augmented package,
// variants[path], every module package the external test's imports
// reach that imports path, directly or not — what go test builds as
// "d [path.test]" — and adds it to variants, so the test sees one type
// whether it names it itself or through such a package.
func (l *Loader) testVariants(path string, variants map[string]*types.Package, imports []string) error {
	reaches := map[string]bool{path: true}
	var visit func(p string) (bool, error)
	visit = func(p string) (bool, error) {
		lp, ok := l.listed[p]
		if _, done := reaches[p]; done || !ok || lp.Standard {
			return reaches[p], nil
		}
		reaches[p] = false // a cycle is go list's to report
		for _, imp := range lp.Imports {
			r, err := visit(imp)
			if err != nil {
				return false, err
			}
			reaches[p] = reaches[p] || r
		}
		if !reaches[p] {
			return false, nil
		}
		vp, err := l.check(p, lp.Name, lp.Dir, lp.GoFiles, variants)
		if err != nil {
			return false, err
		}
		variants[p] = vp.Types
		return true, nil
	}
	for _, imp := range imports {
		if _, err := visit(imp); err != nil {
			return err
		}
	}
	return nil
}

// list runs `go list -json -deps` and records every listed package,
// returning the root (non-DepOnly) module package paths in sorted
// order.
func (l *Loader) list(patterns []string) ([]string, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(stdout))
	var roots []string
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		p := lp
		l.listed[lp.ImportPath] = &p
		if !lp.Standard && !lp.DepOnly {
			roots = append(roots, lp.ImportPath)
		}
	}
	sort.Strings(roots)
	return roots, nil
}

// pkg returns the type-checked library unit for a module import path,
// building it (and its module dependencies) on first use.
func (l *Loader) pkg(path string) (*Package, error) {
	if p, ok := l.base[path]; ok {
		return p, nil
	}
	lp, ok := l.listed[path]
	if !ok || lp.Standard {
		return nil, fmt.Errorf("analysis: %s is not a listed module package", path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	p, err := l.check(path, lp.Name, lp.Dir, lp.GoFiles, nil)
	if err != nil {
		return nil, err
	}
	l.base[path] = p
	return p, nil
}

// check parses and type-checks one package unit. overrides, when
// non-nil, redirects specific import paths to already-built packages
// (used by the fixture harness).
func (l *Loader) check(path, name, dir string, files []string, overrides map[string]*types.Package) (*Package, error) {
	pkg := &Package{Path: path, Fset: l.Fset}
	for _, f := range files {
		fn := filepath.Join(dir, f)
		af, err := parser.ParseFile(l.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", fn, err)
		}
		pkg.Files = append(pkg.Files, af)
		pkg.Filenames = append(pkg.Filenames, fn)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg.Info = info
	var firstErr error
	_ = name
	conf := types.Config{
		Importer: &unitImporter{l: l, overrides: overrides},
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tp, err := conf.Check(path, l.Fset, pkg.Files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	pkg.Types = tp
	return pkg, nil
}

// CheckFiles type-checks an ad-hoc set of files as one package unit
// under the given import path — the fixture harness's entry point.
// Imports of module packages resolve against the loader's module;
// everything else goes to the standard-library importer.
func (l *Loader) CheckFiles(path, dir string, files []string) (*Package, error) {
	return l.check(path, "", dir, files, nil)
}

// unitImporter resolves one unit's imports: overrides first, then
// module packages from source, then the standard library.
type unitImporter struct {
	l         *Loader
	overrides map[string]*types.Package
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	if p, ok := u.overrides[path]; ok {
		return p, nil
	}
	if lp, ok := u.l.listed[path]; ok && !lp.Standard {
		p, err := u.l.pkg(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if !strings.Contains(path, ".") {
		return u.l.std.Import(path)
	}
	// A module path not known to go list (fixture importing something
	// unlisted) — try the source importer as a last resort.
	return u.l.std.Import(path)
}
