package main

import (
	"strings"
	"testing"
)

// smoke runs earlctl's entry point with the given flags and returns its
// output; every path uses a small -n so the suite stays fast.
func smoke(t *testing.T, args ...string) string {
	t.Helper()
	var out, errw strings.Builder
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("earlctl %v: %v\noutput:\n%s%s", args, err, out.String(), errw.String())
	}
	return out.String()
}

func TestRunMeanPreMap(t *testing.T) {
	out := smoke(t, "-job", "mean", "-n", "40000", "-seed", "3")
	for _, want := range []string{"mean over", "pre-map sampling", "answer off by"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunPostMapSampler is the regression test for the PR 1 fix: under
// -sampler post-map, earlctl must run the post-map job (once), not the
// pre-map job twice.
func TestRunPostMapSampler(t *testing.T) {
	out := smoke(t, "-job", "mean", "-n", "40000", "-sampler", "post-map", "-seed", "4")
	if !strings.Contains(out, "post-map sampling") {
		t.Fatalf("post-map run not reported as post-map:\n%s", out)
	}
	if strings.Contains(out, "pre-map sampling") {
		t.Fatalf("post-map run reported pre-map sampling:\n%s", out)
	}
}

func TestRunQuantileJob(t *testing.T) {
	out := smoke(t, "-job", "p99", "-dist", "zipf", "-n", "40000", "-seed", "5")
	if !strings.Contains(out, "quantile-0.99") {
		t.Fatalf("p99 output unexpected:\n%s", out)
	}
}

func TestRunWatchMode(t *testing.T) {
	out := smoke(t, "-job", "mean", "-n", "60000", "-watch", "2", "-append-n", "10000", "-seed", "6")
	if !strings.Contains(out, "first answer") {
		t.Fatalf("watch mode missing first answer:\n%s", out)
	}
	if !strings.Contains(out, "refresh 1") || !strings.Contains(out, "refresh 2") {
		t.Fatalf("watch mode missing refresh cycles:\n%s", out)
	}
	if !strings.Contains(out, "answer off by") {
		t.Fatalf("watch mode missing exact comparison:\n%s", out)
	}
}

func TestRunParallelismFlag(t *testing.T) {
	smoke(t, "-job", "mean", "-n", "40000", "-parallelism", "1", "-seed", "7")
	smoke(t, "-job", "mean", "-n", "40000", "-parallelism", "4", "-seed", "7")
}

// TestRunKillNodes covers the -kill fault-tolerance path for a scalar
// and a grouped query: the run must finish with an answer, and the kill
// goroutine's output must be fully flushed before the report (run waits
// for it, so the injected writer needs no locking).
func TestRunKillNodes(t *testing.T) {
	out := smoke(t, "-job", "mean", "-n", "120000", "-kill", "3,4", "-seed", "8")
	if !strings.Contains(out, "answer off by") {
		t.Fatalf("kill run produced no answer:\n%s", out)
	}
	out = smoke(t, "-job", "mean", "-by", "key", "-kill", "3", "-n", "200000", "-seed", "16")
	for _, want := range []string{"killed node 3", "groups"} {
		if !strings.Contains(out, want) {
			t.Fatalf("grouped kill output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-job", "nope", "-n", "1000"},
		{"-sampler", "sideways", "-n", "1000"},
		{"-n", "0"},
		{"-definitely-not-a-flag"},
		{"-job", "kmeans", "-watch", "2", "-n", "1000"},
	}
	for _, args := range cases {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); err == nil {
			t.Fatalf("earlctl %v should fail", args)
		}
	}
}

// TestRunMultiJobSharedPass: repeated -job flags run as ONE shared-pass
// multi-statistic query with one report per statistic.
func TestRunMultiJobSharedPass(t *testing.T) {
	out := smoke(t, "-job", "mean", "-job", "p95", "-job", "count", "-n", "40000", "-seed", "9")
	for _, want := range []string{"mean+quantile-0.95+count over", "exact        : mean", "exact        : quantile-0.95", "exact        : count"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi-job output missing %q:\n%s", want, out)
		}
	}
}

// TestRunMultiJobWatch: -watch with repeated -job maintains every
// statistic under one refresh per append.
func TestRunMultiJobWatch(t *testing.T) {
	out := smoke(t, "-job", "mean", "-job", "p99", "-n", "40000", "-watch", "2", "-append-n", "8000", "-seed", "10")
	for _, want := range []string{"first answer", "refresh 1", "refresh 2", "quantile-0.99", "answer off by"} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi-job watch output missing %q:\n%s", want, out)
		}
	}
}

// TestRunRejectsKMeansInMulti: kmeans is not a Numeric job and cannot
// join a shared pass.
func TestRunRejectsKMeansInMulti(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-job", "kmeans", "-job", "mean", "-n", "1000"}, &out, &errw); err == nil {
		t.Fatal("kmeans in a multi-statistic query should fail")
	}
}

// TestRunPlanFilter: -filter adds σ to the plan, and -journal reports
// after a filtered query as after any other.
func TestRunPlanFilter(t *testing.T) {
	out := smoke(t, "-job", "mean", "-filter", "v > 50", "-journal", "-n", "20000", "-seed", "11")
	for _, want := range []string{"plan", "where v > 50", "mean", "journal      :"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan output missing %q:\n%s", want, out)
		}
	}
}

// TestRunPlanGroupedByExpr: -by with a bucketing expression runs the
// grouped plan over plain numeric data, and -compact applies to it.
func TestRunPlanGroupedByExpr(t *testing.T) {
	out := smoke(t, "-job", "mean", "-by", "floor(v / 25)", "-compact", "-n", "40000", "-seed", "12")
	if !strings.Contains(out, "groups") || !strings.Contains(out, "by floor(v / 25)") || !strings.Contains(out, "compact      :") {
		t.Fatalf("grouped plan output unexpected:\n%s", out)
	}
}

// TestRunPlanByKeyWatch: a degenerate "by key" plan generates KV data
// and stays maintainable under -watch.
func TestRunPlanByKeyWatch(t *testing.T) {
	out := smoke(t, "-job", "mean", "-by", "key", "-keys", "4", "-n", "30000", "-watch", "1", "-append-n", "6000", "-seed", "13")
	for _, want := range []string{"first answer", "refresh 1", "k0000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("by-key watch output missing %q:\n%s", want, out)
		}
	}
}

// TestRunPlanRejectsBadExpressions: malformed or mistyped expressions
// fail with positioned errors from the shared validation path.
func TestRunPlanRejectsBadExpressions(t *testing.T) {
	cases := [][]string{
		{"-job", "mean", "-filter", "v +", "-n", "1000"},            // malformed
		{"-job", "mean", "-filter", "v + 1", "-n", "1000"},          // not boolean
		{"-job", "mean", "-derive", "v > 1", "-n", "1000"},          // not numeric
		{"-job", "mean", "-job", "p95", "-by", "key", "-n", "1000"}, // grouped multi-stat
		{"-job", "kmeans", "-filter", "v > 1", "-n", "1000"},
	}
	for _, args := range cases {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); err == nil {
			t.Fatalf("earlctl %v should fail", args)
		}
	}
}
