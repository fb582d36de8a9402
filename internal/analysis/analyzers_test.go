package analysis

// Fixture-driven analyzer tests in the style of
// golang.org/x/tools/go/analysis/analysistest: each testdata/<analyzer>
// directory is type-checked as one package and the analyzer's
// diagnostics are matched line by line against `// want` comments
// (backquoted regexps).

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	wantRe    = regexp.MustCompile("// want((?: `[^`]*`)+)")
	wantArgRe = regexp.MustCompile("`([^`]*)`")
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func fixtureFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	return files
}

func checkFixture(t *testing.T, l *Loader, dir string) *Package {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.CheckFiles("fixture/"+filepath.Base(dir), abs, fixtureFiles(t, dir))
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return pkg
}

// runFixture analyzes testdata/<name> and matches diagnostics against
// `// want` comments.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg := checkFixture(t, NewLoader(moduleRoot(t)), dir)
	diags, fset, err := Run([]*Analyzer{a}, []*Package{pkg})
	if err != nil {
		t.Fatal(err)
	}

	type lineKey struct {
		file string
		line int
	}
	type wantSpec struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[lineKey][]*wantSpec{}
	for _, fn := range pkg.Filenames {
		src, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, am := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(am[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fn, i+1, am[1], err)
				}
				k := lineKey{fn, i + 1}
				wants[k] = append(wants[k], &wantSpec{re: re})
			}
		}
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, w := range wants[lineKey{p.Filename, p.Line}] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", p, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

func TestRngSource(t *testing.T)   { runFixture(t, RngSource, "testdata/rngsource") }
func TestMapOrder(t *testing.T)    { runFixture(t, MapOrder, "testdata/maporder") }
func TestHotAlloc(t *testing.T)    { runFixture(t, HotAlloc, "testdata/hotalloc") }
func TestSentinelErr(t *testing.T) { runFixture(t, SentinelErr, "testdata/sentinelerr") }

// TestByName covers the driver's analyzer selection.
func TestByName(t *testing.T) {
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	as, err := ByName([]string{"maporder", "hotalloc"})
	if err != nil || len(as) != 2 || as[0] != MapOrder || as[1] != HotAlloc {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if got := len(All()); got != 6 {
		t.Fatalf("All() = %d analyzers, want 6", got)
	}
}

// TestRepoInvariants is the dogfood gate: the whole module must be
// clean under every analyzer (modulo justified //earl: directives).
func TestRepoInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l := NewLoader(moduleRoot(t))
	pkgs, err := l.Load([]string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	diags, fset, err := Run(All(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Category, d.Message)
	}
}

func TestJournalCommit(t *testing.T) { runFixture(t, JournalCommit, "testdata/journalcommit") }
func TestBlockHold(t *testing.T)     { runFixture(t, BlockHold, "testdata/blockhold") }
