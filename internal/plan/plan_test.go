package plan

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colscan"
)

func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	n, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", s, err)
	}
	return n
}

func TestNormalizeCanonicalizesEquivalentSpecs(t *testing.T) {
	a := mustNormalize(t, Spec{Path: " /data ", Stats: []string{"P50"}, Filter: "v>1&&key==\"a\""})
	b := mustNormalize(t, Spec{Path: "/data", Stats: []string{"quantile-0.5"}, Filter: "(v) > 1.00 && (key == \"a\")"})
	if a.Key() != b.Key() {
		t.Fatalf("equivalent specs key differently:\n  %s\n  %s", a.Key(), b.Key())
	}
	if a.Filter != `v > 1 && key == "a"` {
		t.Fatalf("canonical filter = %q", a.Filter)
	}
	if a.Stats[0] != "quantile-0.5" {
		t.Fatalf("canonical stat = %q", a.Stats[0])
	}
	if a.Sigma != 0.05 {
		t.Fatalf("default sigma = %g", a.Sigma)
	}
}

func TestNormalizeDefaultsAndErrors(t *testing.T) {
	if s := mustNormalize(t, Spec{Path: "/d"}); len(s.Stats) != 1 || s.Stats[0] != "mean" {
		t.Fatalf("default stats = %v", s.Stats)
	}
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{}, "path is required"},
		{Spec{Path: "/d", Stats: []string{"bogus"}}, "bogus"},
		{Spec{Path: "/d", Stats: []string{"p50", "q0.5"}}, "duplicate statistic"},
		{Spec{Path: "/d", Filter: "v +"}, "unexpected end of expression"},
		{Spec{Path: "/d", Filter: "v + 1"}, "filter must be a boolean"},
		{Spec{Path: "/d", Derive: "v > 1"}, "derive must be a number"},
		{Spec{Path: "/d", GroupBy: "v > 1"}, "group-by must be a number"},
		{Spec{Path: "/d", GroupBy: "key", Stats: []string{"mean", "p95"}}, "single statistic"},
		{Spec{Path: "/d", Sampler: "mid-map"}, "unknown sampler"},
		{Spec{Path: "/d", Sigma: -1}, "sigma must be positive"},
		{Spec{Path: "/d", Filter: "w > 1"}, "unknown identifier"},
		{Spec{Path: "/d", Filter: "frob(v) > 1"}, "unknown function"},
		{Spec{Path: "/d", Filter: "min(v) > 1"}, "takes 2 argument"},
		{Spec{Path: "/d", Filter: `key > "a"`}, "compares numbers"},
		{Spec{Path: "/d", Filter: "1 < 2 < 3"}, "comparisons do not chain"},
	}
	for _, c := range cases {
		_, err := c.spec.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Normalize(%+v) err = %v, want containing %q", c.spec, err, c.want)
		}
	}
}

func TestPositionedErrors(t *testing.T) {
	_, err := Spec{Path: "/d", Filter: "v > )"}.Normalize()
	var pe *PosError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PosError", err)
	}
	if pe.Pos != 4 {
		t.Fatalf("Pos = %d, want 4 (%v)", pe.Pos, err)
	}
	if !strings.Contains(err.Error(), "column 5") {
		t.Fatalf("message lacks column: %v", err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := mustNormalize(t, Spec{
		Path: "/d", Stats: []string{"mean", "p95"}, Filter: "v > 0", Derive: "v * 2",
		Sigma: 0.1, Sampler: "post-map", Seed: 7,
	})
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != s.Key() {
		t.Fatalf("JSON round trip changed key:\n  %s\n  %s", s.Key(), back.Key())
	}
}

func TestCompileDegenerate(t *testing.T) {
	for _, s := range []Spec{
		{Path: "/d"},
		{Path: "/d", GroupBy: "key"},
	} {
		p, err := mustNormalize(t, s).Compile()
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			t.Fatalf("degenerate spec %+v compiled to non-nil program", s)
		}
	}
}

func TestProgramFormatsAndKeyed(t *testing.T) {
	cases := []struct {
		spec   Spec
		format colscan.Format
		keyed  bool
	}{
		{Spec{Path: "/d", Filter: "v > 1"}, colscan.FormatNumeric, false},
		{Spec{Path: "/d", Filter: `key == "a"`}, colscan.FormatKV, false},
		{Spec{Path: "/d", Filter: "v > 1", GroupBy: "key"}, colscan.FormatKV, true},
		{Spec{Path: "/d", GroupBy: "floor(v / 10)"}, colscan.FormatNumeric, true},
	}
	for _, c := range cases {
		p, err := mustNormalize(t, c.spec).Compile()
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			t.Fatalf("spec %+v compiled to nil", c.spec)
		}
		if keyed := p.groupKey || p.group != nil; p.InputFormat() != c.format || keyed != c.keyed {
			t.Errorf("spec %+v: format=%v keyed=%v, want %v/%v",
				c.spec, p.InputFormat(), keyed, c.format, c.keyed)
		}
	}
}

func TestApplyFilterDeriveGroup(t *testing.T) {
	spec := mustNormalize(t, Spec{Path: "/d", Stats: []string{"mean"},
		Filter: "v >= 10 && v < 30", Derive: "v * 2 + 1", GroupBy: "floor(v / 10)"})
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	in := &colscan.Cols{Vals: []float64{5, 10, 15, 25, 30, 12}}
	var out colscan.Cols
	kept, err := p.Apply(sc, in, &out, false)
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []float64{21, 31, 51, 25}
	wantKeys := []string{"1", "1", "2", "1"}
	if kept != 4 || len(out.Vals) != 4 || len(out.Keys) != 4 {
		t.Fatalf("kept=%d out=%v keys=%v", kept, out.Vals, out.Keys)
	}
	for i := range wantVals {
		if out.Vals[i] != wantVals[i] || out.Keys[i] != wantKeys[i] {
			t.Fatalf("record %d = (%q, %g), want (%q, %g)", i, out.Keys[i], out.Vals[i], wantKeys[i], wantVals[i])
		}
	}
	// The reference path must agree record for record.
	j := 0
	for _, v := range in.Vals {
		keep, key, val, err := p.EvalRecord("", v)
		if err != nil {
			t.Fatal(err)
		}
		if wantKeep := v >= 10 && v < 30; keep != wantKeep {
			t.Fatalf("EvalRecord(%g) keep = %v, want %v", v, keep, wantKeep)
		}
		if keep {
			if val != out.Vals[j] || key != out.Keys[j] {
				t.Fatalf("EvalRecord(%g) = (%q, %g), Apply gave (%q, %g)", v, key, val, out.Keys[j], out.Vals[j])
			}
			j++
		}
	}
}

func TestApplyPrefilteredSkipsSigma(t *testing.T) {
	p, err := mustNormalize(t, Spec{Path: "/d", Filter: "v > 100"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	in := &colscan.Cols{Vals: []float64{1, 2, 3}}
	var out colscan.Cols
	kept, err := p.Apply(NewScratch(), in, &out, true)
	if err != nil || kept != 3 {
		t.Fatalf("prefiltered Apply kept %d (%v), want all 3", kept, err)
	}
}

// stringReaderAt adapts a string to the colscan.ReaderAt surface.
type stringReaderAt string

func (s stringReaderAt) ReadAt(path string, off int64, p []byte) (int, error) {
	n := copy(p, string(s)[off:])
	return n, nil
}

func TestKeepBlockMatchesEvalRecord(t *testing.T) {
	p, err := mustNormalize(t, Spec{Path: "/d", Filter: `key == "a" && v > 2`}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	recs := []struct {
		k string
		v float64
	}{{"a", 1}, {"a", 3}, {"b", 4}, {"a", 5}, {"b", 1}}
	var buf strings.Builder
	for _, r := range recs {
		buf.WriteString(r.k + "\t" + strconv.FormatFloat(r.v, 'g', -1, 64) + "\n")
	}
	blk, err := colscan.Decode(stringReaderAt(buf.String()), "/d",
		int64(buf.Len()), 0, int64(buf.Len()), colscan.FormatKV)
	if err != nil {
		t.Fatal(err)
	}
	got := p.KeepBlock(NewScratch(), blk, nil)
	var want []int32
	for i, r := range recs {
		keep, _, _, err := p.EvalRecord(r.k, r.v)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			want = append(want, int32(i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("KeepBlock = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("KeepBlock = %v, want %v", got, want)
		}
	}
}

func TestNonFiniteDeriveFailsAsBadRecord(t *testing.T) {
	p, err := mustNormalize(t, Spec{Path: "/d", Derive: "1 / v"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	in := &colscan.Cols{Vals: []float64{2, 0}}
	var out colscan.Cols
	if _, err := p.Apply(NewScratch(), in, &out, false); !errors.Is(err, colscan.ErrBadRecord) {
		t.Fatalf("Apply err = %v, want ErrBadRecord", err)
	}
	if _, _, _, err := p.EvalRecord("", 0); !errors.Is(err, colscan.ErrBadRecord) {
		t.Fatalf("EvalRecord err = %v, want ErrBadRecord", err)
	}
}

func TestNaNFilterSemantics(t *testing.T) {
	// Comparisons involving NaN are false: "v/v > -1" must drop the
	// v=0 record on both paths.
	p, err := mustNormalize(t, Spec{Path: "/d", Filter: "v / v > -1"}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	in := &colscan.Cols{Vals: []float64{0, 2}}
	var out colscan.Cols
	kept, err := p.Apply(NewScratch(), in, &out, false)
	if err != nil || kept != 1 || out.Vals[0] != 2 {
		t.Fatalf("Apply kept=%d vals=%v err=%v", kept, out.Vals, err)
	}
	keep, _, _, err := p.EvalRecord("", 0)
	if err != nil || keep {
		t.Fatalf("EvalRecord(0) keep=%v err=%v", keep, err)
	}
}

func TestCanonicalPrintRoundTrip(t *testing.T) {
	cases := []string{
		"v*2+1",
		"-(v+1)*2",
		"v - (1 - 2) - 3",
		"min(v, max(1, v-2))",
		"!(v > 1) || v == 2 && v != 3",
		"abs(-v) / (v + 1e-9)",
	}
	for _, src := range cases {
		n1, err := parseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		p1 := printExpr(n1)
		n2, err := parseExpr(p1)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", p1, src, err)
		}
		if p2 := printExpr(n2); p2 != p1 {
			t.Fatalf("print not canonical: %q -> %q -> %q", src, p1, p2)
		}
		// Semantics preserved across the round trip.
		for _, v := range []float64{-2, 0, 1, 2.5, 7} {
			a, b := evalNode(n1, "", v), evalNode(n2, "", v)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%q: eval diverged after print (%g vs %g at v=%g)", src, a, b, v)
			}
		}
	}
}
