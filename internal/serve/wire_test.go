package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/workload"
)

// update re-records testdata/wire.json from the tree under test (the
// re-pin window of ROADMAP direction 1 is the only PR series that should
// need it).
var update = flag.Bool("update", false, "re-record internal/serve/testdata/wire.json")

// TestWireJSONGolden pins the bytes earld puts on the wire for a scalar,
// a 3-statistic and a grouped spec: the QueryResult of a one-shot, the
// WatchInfo of an open, and the WatchInfo of the report after an append —
// `reports` only when more than one statistic, `groups` only when
// grouped, field order and spelling as recorded.
func TestWireJSONGolden(t *testing.T) {
	env := newWireEnv(t)
	s, err := New(env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := map[string]json.RawMessage{}
	put := func(key string, v any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got[key] = b
	}
	for _, tc := range []struct {
		name string
		spec QuerySpec
		more []byte
	}{
		{"scalar", QuerySpec{Spec: plan.Spec{Path: "/w/data", Stats: []string{"mean"}, Sigma: 0.05, Seed: 3}}, wireValues(t, 10_000, 4)},
		{"multi", QuerySpec{Spec: plan.Spec{Path: "/w/data", Stats: []string{"mean", "p95", "count"}, Sigma: 0.05, Seed: 5}}, wireValues(t, 10_000, 6)},
		{"grouped", QuerySpec{Spec: plan.Spec{Path: "/w/kv", Stats: []string{"mean"}, GroupBy: "key", Sigma: 0.08, Seed: 7}}, wireKV(t, 10_000, 8)},
	} {
		res, err := s.Query(ctx, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res.Elapsed = 0 // wall time; everything else is a function of seed and data
		put(tc.name+"/query", res)
		info, _, err := s.OpenWatch(ctx, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		put(tc.name+"/open", info)
		if _, err := s.Append(tc.spec.Path, tc.more); err != nil {
			t.Fatal(err)
		}
		info, err = s.WatchReport(ctx, info.ID)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		put(tc.name+"/report", info)
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const file = "testdata/wire.json"
	if *update {
		if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), out) {
		t.Fatalf("wire JSON moved; recorded:\n%s\ngot:\n%s", want, out)
	}
}

func newWireEnv(t *testing.T) *core.Env {
	t.Helper()
	_, env := newTestServer(t, Config{}, "/w/data", 60_000)
	if err := env.FS.WriteFile("/w/kv", wireKV(t, 60_000, 9)); err != nil {
		t.Fatal(err)
	}
	env.Metrics.Reset()
	return env
}

func wireValues(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return workload.EncodeLinesFixed(xs)
}

func wireKV(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	xs, err := workload.NumericSpec{Dist: workload.Gaussian, N: n, Seed: seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, x := range xs {
		fmt.Fprintf(&buf, "%s\t%012.6f\n", []string{"api", "db", "web"}[i%3], x)
	}
	return buf.Bytes()
}
