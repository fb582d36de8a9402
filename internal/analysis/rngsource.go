package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RngSource is the determinism analyzer for randomness sources (the
// PR 1 bug class: the parallel bootstrap once seeded from the process-
// global rng, so fixed-seed runs were only reproducible at one
// parallelism level). In non-test library code it reports:
//
//   - any import of math/rand (v1): its package-level functions draw
//     from a process-global, start-time-seeded source;
//   - calls to math/rand/v2 package-level draw functions (IntN,
//     Float64, Perm, Shuffle, N, ...): same global source. The
//     explicit-seed constructors (New, NewPCG, NewChaCha8, NewZipf)
//     stay allowed, as does internal/stats.NewPCG — the same PCG
//     stream with a block draw, outside these packages altogether —
//     determinism is then visibly the caller's seed argument, which
//     is exactly the contract internal/stats.SplitRNG and
//     internal/aes's newRNG build on;
//   - wall-clock seeding: time.Now flowing into an rng constructor
//     argument, a parameter whose name contains "seed", or a composite-
//     literal field named Seed (the Config{Seed: ...} shape every EARL
//     entry point uses).
//
// //earl:rand-ok <reason> on the offending line suppresses a finding.
var RngSource = &Analyzer{
	Name: "rngsource",
	Doc: "library randomness must flow through explicitly seeded streams, " +
		"never the global math/rand source or wall-clock seeds",
	Run: runRngSource,
}

// rngConstructors are the math/rand/v2 package-level functions that
// take an explicit source/seed and are therefore deterministic in the
// caller's hands.
var rngConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func runRngSource(pass *Pass) (any, error) {
	if pass.Pkg.Name() == "main" || pass.IsTest {
		return nil, nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"math/rand"` {
				if !pass.Suppressed(imp.Pos(), "rand-ok") {
					pass.Reportf(imp.Pos(),
						"import of math/rand: its global source is seeded at process start; use math/rand/v2 streams seeded via internal/stats.SplitRNG, stats.NewPCG or an explicit Config seed")
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkGlobalRandCall(pass, call)
			checkWallClockSeed(pass, call)
			return true
		})
		checkSeedFields(pass, file)
	}
	return nil, nil
}

// checkGlobalRandCall flags math/rand(/v2) package-level draw functions.
func checkGlobalRandCall(pass *Pass, call *ast.CallExpr) {
	fn := CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || isMethod(fn) {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand/v2" && path != "math/rand" {
		return
	}
	if rngConstructors[fn.Name()] {
		return
	}
	if pass.Suppressed(call.Pos(), "rand-ok") {
		return
	}
	pass.Reportf(call.Pos(),
		"call to rand.%s draws from the process-global source; derive a stream from the run's seed (stats.SplitRNG / stats.NewPCG(seed, ...) / rand.New(rand.NewPCG(seed, ...)))",
		fn.Name())
}

// checkWallClockSeed flags time.Now feeding an rng constructor or a
// seed-named parameter.
func checkWallClockSeed(pass *Pass, call *ast.CallExpr) {
	fn := CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	seedish := false
	if fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand/v2" || fn.Pkg().Path() == "math/rand") && rngConstructors[fn.Name()] {
		seedish = true
	}
	sig, _ := fn.Type().(*types.Signature)
	if !seedish && sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if containsFold(sig.Params().At(i).Name(), "seed") {
				seedish = true
				break
			}
		}
	}
	if !seedish && containsFold(fn.Name(), "seed") {
		seedish = true
	}
	if !seedish {
		return
	}
	for _, arg := range call.Args {
		if pos, found := findTimeNow(pass.TypesInfo, arg); found {
			if !pass.Suppressed(pos, "rand-ok") {
				pass.Reportf(pos,
					"wall-clock value seeds %s: fixed-seed runs become irreproducible; thread a Config seed instead", fn.Name())
			}
			return
		}
	}
}

// checkSeedFields flags composite-literal fields named Seed whose value
// derives from time.Now (the Config{Seed: time.Now().UnixNano()} shape).
func checkSeedFields(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !containsFold(key.Name, "seed") {
			return true
		}
		if pos, found := findTimeNow(pass.TypesInfo, kv.Value); found {
			if !pass.Suppressed(pos, "rand-ok") {
				pass.Reportf(pos,
					"wall-clock value seeds field %s: fixed-seed runs become irreproducible; thread a Config seed instead", key.Name)
			}
		}
		return true
	})
}

// findTimeNow reports the position of a time.Now() call anywhere in the
// expression tree.
func findTimeNow(info *types.Info, expr ast.Expr) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if ok && IsPkgFunc(info, call, "time", "Now") {
			pos, found = call.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}

// containsFold is a case-insensitive strings.Contains for ASCII names.
func containsFold(s, sub string) bool {
	lower := func(b byte) byte {
		if 'A' <= b && b <= 'Z' {
			return b + 'a' - 'A'
		}
		return b
	}
	if len(sub) > len(s) {
		return false
	}
outer:
	for i := 0; i+len(sub) <= len(s); i++ {
		for j := 0; j < len(sub); j++ {
			if lower(s[i+j]) != lower(sub[j]) {
				continue outer
			}
		}
		return true
	}
	return false
}
