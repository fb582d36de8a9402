package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadXTestThroughADependent: an external test package that hands
// a *p.T to d, a package importing p, type-checks as go test builds it —
// d re-checked against p's test-augmented variant — not against p's
// plain build, whose T is another type. d sorts before p, so the test
// reaches the dependent before it names p itself.
func TestLoadXTestThroughADependent(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":             "module example.com/m\n\ngo 1.24\n",
		"p/p.go":             "package p\n\ntype T struct{ N int }\n",
		"p/internal_test.go": "package p\n\nfunc twice(t *T) int { return 2 * t.N }\n",
		"p/p_test.go":        "package p_test\n\nimport (\n\t\"example.com/m/d\"\n\t\"example.com/m/p\"\n)\n\nvar _ = d.Get(&p.T{N: 1})\n",
		"d/d.go":             "package d\n\nimport \"example.com/m/p\"\n\nfunc Get(t *p.T) int { return t.N }\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoader(dir).Load([]string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.Path == "example.com/m/p_test" {
			return
		}
	}
	t.Fatal("the external test package was not loaded")
}
