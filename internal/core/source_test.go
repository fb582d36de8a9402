package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// customDecode is a scalar job's decode with its ScanFormat stripped:
// the job's own Parse, applied by the samplers.
func customDecode() decode {
	job := jobs.Mean()
	job.ScanFormat = colscan.FormatNone
	return scalarDecode(job, nil)
}

// TestNewRecordSourcesDraws covers both sampler kinds over a healthy
// cluster, on a custom-parser decode: construction succeeds and every
// source yields parsed records.
func TestNewRecordSourcesDraws(t *testing.T) {
	env, _ := testEnv(t, 10_000, workload.Uniform, 101)
	splits, err := env.FS.Splits("/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := [][]dfs.Split{splits[:len(splits)/2], splits[len(splits)/2:]}
	for _, sampler := range []SamplerKind{PreMapSampling, PostMapSampling} {
		sources, err := newRecordSources(env, "/data", owned, Options{Sampler: sampler, Seed: 7}, 0, customDecode(), nil)
		if err != nil {
			t.Fatalf("%s: %v", sampler, err)
		}
		for i, s := range sources {
			var cols colscan.Cols
			n, err := s.DrawCols(5, &cols)
			if err != nil || n != 5 || len(cols.Vals) != 5 || len(cols.Keys) != 0 {
				t.Fatalf("%s source %d: drew %d (%d vals, %d keys), err %v", sampler, i, n, len(cols.Vals), len(cols.Keys), err)
			}
			if s.Weight() <= 0 {
				t.Fatalf("%s source %d: weight %d", sampler, i, s.Weight())
			}
		}
	}
}

// TestPostMapFillTakesOnePool pins what a post-map fill allocates once
// its blocks are decoded: one mapper over 1 MiB blocks of
// "g<i%16>\t<value>" text (the end-to-end benchmark's query_scan shape),
// its σ keeping three records in four and every block a scan-cache hit.
// The pool is one span per block over the block's memoized selection,
// so the fill allocates nothing per record: its spans and the mapper's
// scratch stay under 64 KiB, where a pool of 8-byte record references
// would take megabytes.
func TestPostMapFillTakesOnePool(t *testing.T) {
	const blocks = 8
	env, err := NewEnv(EnvConfig{BlockSize: 1 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := workload.NumericSpec{Dist: workload.Uniform, N: blocks << 16, Seed: 7}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 0, blocks<<20)
	for i := 0; len(data) < blocks<<20-(1<<19); i++ {
		data = fmt.Appendf(data, "g%d\t%012.6f\n", i%16, vals[i])
	}
	if err := env.FS.WriteFile("/fill", data); err != nil {
		t.Fatal(err)
	}
	pq, err := PreparePlan(plan.Spec{Path: "/fill", Stats: []string{"mean"},
		Filter: `v > 20 && key != "g7"`, GroupBy: "key", Sampler: "post-map"}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := groupedDecode(TabRoute(), pq.Prog)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits("/fill", 0)
	if err != nil {
		t.Fatal(err)
	}
	fill := func() int64 {
		sources, err := newRecordSources(env, "/fill", [][]dfs.Split{splits}, pq.Opts, 0, dec, pq.Prog)
		if err != nil {
			t.Fatal(err)
		}
		return sources[0].Weight()
	}
	pooled := fill() // decodes the blocks into the scan cache
	if len(splits) != blocks || pooled == 0 {
		t.Fatalf("fixture: %d blocks (want %d), %d records pooled", len(splits), blocks, pooled)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if again := fill(); again != pooled {
		t.Fatalf("a second fill pooled %d records, the first %d", again, pooled)
	}
	runtime.ReadMemStats(&after)
	got, limit := int64(after.TotalAlloc-before.TotalAlloc), int64(64<<10)
	t.Logf("pooling %d records allocates %d B", pooled, got)
	if got > limit {
		t.Fatalf("pooling %d records allocates %d B, limit %d", pooled, got, limit)
	}
}

// TestNewRecordSourcesToleratesDeadScan pins the §3.4 contract at the
// source layer: when a post-map pool scan hits a block with no live
// replica, construction must NOT fail the run — the affected mapper gets
// a source whose draws fail (so it is accounted as a lost mapper), while
// the other mappers keep their data.
func TestNewRecordSourcesToleratesDeadScan(t *testing.T) {
	env, err := NewEnv(EnvConfig{DataNodes: 3, Replication: 1, BlockSize: 1 << 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := workload.NumericSpec{Dist: workload.Uniform, N: 5_000, Seed: 6}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/data", workload.EncodeLinesFixed(xs)); err != nil {
		t.Fatal(err)
	}
	if err := env.FS.KillDataNode(1); err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits("/data", 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([][]dfs.Split, len(splits))
	for i, sp := range splits {
		owned[i] = []dfs.Split{sp}
	}
	sources, err := newRecordSources(env, "/data", owned, Options{Sampler: PostMapSampling, Seed: 8}, 0, customDecode(), nil)
	if err != nil {
		t.Fatalf("construction must tolerate dead blocks, got %v", err)
	}
	var failed, ok int
	for _, s := range sources {
		_, err := s.DrawCols(1, &colscan.Cols{})
		switch {
		case err == nil || errors.Is(err, sampling.ErrExhausted):
			ok++
		default:
			failed++
		}
	}
	// Replication 1 on 3 nodes with one node dead: some splits must be
	// unreadable, the rest must still serve.
	if failed == 0 {
		t.Fatal("expected at least one unreadable split (replication 1, node dead)")
	}
	if ok == 0 {
		t.Fatal("expected surviving splits to keep serving")
	}
}
