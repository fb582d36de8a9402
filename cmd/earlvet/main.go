// Command earlvet runs the EARL invariant analyzers over the module:
//
//	go run ./cmd/earlvet ./...
//
// It machine-checks the determinism, allocation and durability contracts
// that earlier PRs fixed by hand (see internal/analysis): randomness
// must flow through seeded stream constructors, map iteration must not
// feed order-sensitive sinks, //earl:hotpath loops must not allocate
// per iteration, dfs committed state must only change inside the
// journaled commit path, and sentinel errors must be matched with
// errors.Is. Any //earl: directive no analyzer reads is reported too.
//
// Flags:
//
//	-list           print the analyzers and exit
//	-run a,b        run only the named analyzers
//	-notests        skip _test.go files and test package variants
//
// Exit status is 1 when any finding is reported, 2 on a driver error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list    = flag.Bool("list", false, "print the analyzers and exit")
		only    = flag.String("run", "", "comma-separated analyzer names to run (default all)")
		noTests = flag.Bool("notests", false, "skip test files and test package variants")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	analyzers, err := analysis.ByName(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "earlvet:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "earlvet:", err)
		return 2
	}
	loader := analysis.NewLoader(dir)
	pkgs, err := loader.Load(patterns, !*noTests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "earlvet:", err)
		return 2
	}

	diags, fset, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "earlvet:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", fset.Position(d.Pos), d.Category, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "earlvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
