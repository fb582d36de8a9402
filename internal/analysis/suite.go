package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// All returns earlvet's analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{BlockHold, HotAlloc, JournalCommit, MapOrder, RngSource, SentinelErr}
}

// ByName resolves a comma-separated analyzer selection ("" = all).
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to each package unit and returns all
// diagnostics in (file, position) order. Every //earl: directive is
// checked against the known names whichever analyzers are selected.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, *token.FileSet, error) {
	var all []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, f := range pkg.Files {
			all = append(all, unknownDirectives(f)...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Filenames: pkg.Filenames,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				IsTest:    pkg.IsTest,
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fset, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
			all = append(all, pass.Diagnostics()...)
		}
	}
	if fset != nil {
		sort.SliceStable(all, func(i, j int) bool {
			pi, pj := fset.Position(all[i].Pos), fset.Position(all[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			return pi.Offset < pj.Offset
		})
	}
	// A test-augmented unit re-analyzes the package's library files, so
	// the same finding can surface twice; dedupe by (position, message).
	seen := map[string]bool{}
	var out []Diagnostic
	for _, d := range all {
		key := fset.Position(d.Pos).String() + "\x00" + d.Category + "\x00" + d.Message
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	return out, fset, nil
}
