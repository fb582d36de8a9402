package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ functions and methods
// that may stay without a production caller, one reason each. A key is
// the function's package name, its receiver's type name if it is a
// method, and its own name, joined by dots. An entry whose function is
// gone or has gained a production caller fails the test, so the list
// only shrinks by deleting lines.
var exportAllowlist = map[string]string{
	"colscan.Block.AppendAll":      "bench/ only: the benchmark's scan-cache probe",
	"colseg.Extend":                "bench/ only: the benchmark's sidecar extend timer",
	"colseg.Reader.LoadColumns":    "bench/ only: the benchmark's sidecar decode timer",
	"dfs.FileSystem.BlockSize":     "bench/ only: the benchmark's setup sizing",
	"dfs.FileSystem.ReadFile":      "bench/ only: the benchmark's whole-file read timer",
	"dfs.FileSystem.ReadSidecarAt": "bench/ only: the benchmark's sidecar read timer",
	"live.WatchPlan":               "bench/ only: the benchmark's plan watch",
	"live.Query.RefreshAll":        "bench/ only: the benchmark's plan watch refresh",
	"live.GroupedQuery.Refresh":    "bench/ only: the benchmark's grouped watch refresh",
	"dfs.FileSystem.CorruptSidecarByte": "fault hook: dfs's recovery tests damage a live sidecar, " +
		"whose bytes no other API reaches",
	"dfs.FileSystem.TruncateSidecar": "fault hook: dfs's recovery tests cut a live sidecar short, " +
		"whose bytes no other API reaches",
	"plan.Program.EvalLine": "reference oracle: plan's tests and fuzzer diff the compiled " +
		"column path against it, one line at a time",
	"dfs.FileSystem.ReadLineAt": "reference oracle: dfs's and sampling's tests diff ReadLinesAt " +
		"against it, one position at a time",
	"sketch.Part.Size": "delta's tests count each resample's items with it, " +
		"which no production API reports",
}

// TestEveryExportHasAProductionCaller holds the rule that production
// code is what production runs: every exported function or method a
// non-test file under internal/ declares is used by some non-test file
// of the module. Exempt are the methods through which a type implements
// an interface of the module, the standard library or the universe
// (promoted methods included), Unwrap, Is and As, and exportAllowlist.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := NewLoader(moduleRoot(t)).Load([]string{"./..."}, false)
	if err != nil {
		t.Fatal(err)
	}
	used := map[*types.Func]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin()] = true
			}
		}
	}
	implementing := interfaceMethods(pkgs)

	unreached := map[string]string{} // key -> position of the declaration
	declared := map[string]bool{}
	for _, p := range pkgs {
		if !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				f := p.Info.Defs[fd.Name].(*types.Func)
				key := funcKey(f)
				declared[key] = true
				if used[f] || implementing[f] {
					continue
				}
				if n := f.Name(); fd.Recv != nil && (n == "Unwrap" || n == "Is" || n == "As") {
					continue
				}
				unreached[key] = p.Fset.Position(fd.Name.Pos()).String()
			}
		}
	}
	var found []string
	for key, pos := range unreached {
		if _, ok := exportAllowlist[key]; !ok {
			found = append(found, pos+": "+key)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s has no production caller: delete it, move it into a test file, "+
			"or allowlist it with a reason", f)
	}
	keys := make([]string, 0, len(exportAllowlist))
	for k := range exportAllowlist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := unreached[k]; !declared[k] {
			t.Errorf("allowlisted %s is not declared: drop its entry", k)
		} else if !ok {
			t.Errorf("allowlisted %s has a production caller: drop its entry", k)
		}
	}
}

// funcKey names f as exportAllowlist does: pkg.Func or pkg.Recv.Method.
func funcKey(f *types.Func) string {
	name := f.Pkg().Name() + "."
	if recv := f.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + f.Name()
}

// interfaceMethods returns every method through which a named type of
// the module implements an interface declared in the module, in a
// package it imports, directly or not, or in the universe, or spelled
// as an interface literal in the module. A promoted method counts for
// the embedded type that declares it.
func interfaceMethods(pkgs []*Package) map[*types.Func]bool {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	var named []types.Type
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if _, ok := tv.Type.(*types.Named); !ok && tv.IsType() {
				add(tv.Type)
			}
		}
		for _, obj := range p.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
				named = append(named, n, types.NewPointer(n))
			}
		}
		for _, inst := range p.Info.Instances {
			if n, ok := inst.Type.(*types.Named); ok && !types.IsInterface(n) {
				named = append(named, n, types.NewPointer(n))
			}
		}
	}

	// An interface is tried only on the types that have its first
	// method's name: Implements over every pair is seconds.
	byFirst := map[string][]*types.Interface{}
	for _, it := range ifaces {
		name := it.Method(0).Name()
		byFirst[name] = append(byFirst[name], it)
	}
	out := map[*types.Func]bool{}
	for _, t := range named {
		mset := types.NewMethodSet(t)
		for i := range mset.Len() {
			for _, it := range byFirst[mset.At(i).Obj().Name()] {
				if !types.Implements(t, it) {
					continue
				}
				for j := range it.NumMethods() {
					m := it.Method(j)
					out[mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return out
}
