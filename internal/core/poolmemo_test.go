package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/plan"
)

// memoEnv is a cluster holding /kv (30k "key\tvalue" records) in 16 KiB
// blocks: enough blocks that every mapper pools several.
func memoEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(EnvConfig{DataNodes: 3, BlockSize: 1 << 14, Replication: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/kv", kvData()); err != nil {
		t.Fatal(err)
	}
	return env
}

const memoFilter = `v > 40 && key != "db"`

// memoFill returns a fill of one filtered post-map source per mapper
// over env's /kv, four mappers owning interleaved splits, safe to call
// from any goroutine.
func memoFill(t *testing.T, env *Env, filter string) func() ([]recordSource, error) {
	t.Helper()
	pq, err := PreparePlan(plan.Spec{Path: "/kv", Stats: []string{"mean"}, Filter: filter,
		Derive: "v * 2 + 1", GroupBy: "key", Sampler: "post-map"}, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := groupedDecode(TabRoute(), pq.Prog)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits("/kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([][]dfs.Split, 4)
	for i, sp := range splits {
		owned[i%4] = append(owned[i%4], sp)
	}
	return func() ([]recordSource, error) {
		return newRecordSources(env, "/kv", owned, pq.Opts, 0, dec, pq.Prog)
	}
}

// drawRound draws 40 then 400 records from every source, in order.
func drawRound(t *testing.T, sources []recordSource) colscan.Cols {
	var out colscan.Cols
	for _, k := range []int{40, 400} {
		for _, s := range sources {
			if _, err := s.DrawCols(k, &out); err != nil {
				t.Error(err)
			}
		}
	}
	return out
}

// TestConcurrentPoolsKeepDisplacedMemo: two concurrent fills under one
// σ pool the same cached blocks through each block's memoized
// selection, which the pools retain rather than copy. A third fill
// under a narrower σ, whose selections would fit in the arrays of the
// first, then displaces every memo while the first two draw,
// and they draw again after. Both rounds must be bit for bit what the
// same fill draws alone on a fresh cluster: the cache leaves a
// displaced memo to the collector, never rewriting it.
func TestConcurrentPoolsKeepDisplacedMemo(t *testing.T) {
	alone, err := memoFill(t, memoEnv(t), memoFilter)()
	if err != nil {
		t.Fatal(err)
	}
	want := [2]colscan.Cols{drawRound(t, alone), drawRound(t, alone)}
	releaseSources(alone)

	env := memoEnv(t)
	fill, other := memoFill(t, env, memoFilter), memoFill(t, env, `v > 100`)
	pools := make([][]recordSource, 2)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pools[i], errs[i] = fill()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, p := range pools {
			releaseSources(p)
		}
	}()
	before := env.Scan.Stats()
	got := make([][2]colscan.Cols, len(pools))
	var displacing []recordSource
	wg.Add(len(pools) + 1)
	go func() {
		defer wg.Done()
		displacing, errs[2] = other()
	}()
	for i, p := range pools {
		go func() {
			defer wg.Done()
			got[i][0] = drawRound(t, p)
		}()
	}
	wg.Wait()
	if errs[2] != nil {
		t.Fatal(errs[2])
	}
	defer releaseSources(displacing)
	splits, err := env.FS.Splits("/kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if built := env.Scan.Stats().Selections - before.Selections; built != int64(len(splits)) {
		t.Fatalf("the third fill built %d selections, want one per block (%d)", built, len(splits))
	}
	for i, p := range pools {
		got[i][1] = drawRound(t, p)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("pool set %d drew %d+%d records under displaced memos, unlike the same fill alone", i, got[i][0].Len(), got[i][1].Len())
		}
	}
}

// TestUncachedFilteredPostMapMatchesCached: with no scan cache a block
// memoizes nothing, and KeepBlock hands the fill its scratch buffer,
// which the next block's KeepBlock reuses — the fill must copy it. The
// uncached run answers bit for bit as the cached one does.
func TestUncachedFilteredPostMapMatchesCached(t *testing.T) {
	run := func(cached bool) *PlanResult {
		env := memoEnv(t)
		if !cached {
			env.Scan = nil
		}
		res, err := RunPlan(env, plan.Spec{Path: "/kv", Stats: []string{"mean"}, Filter: memoFilter,
			GroupBy: "key", Sampler: "post-map"}, Options{Seed: 3, Sigma: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached, uncached := run(true), run(false)
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatalf("uncached run diverged from cached:\n%+v\n%+v", uncached.Groups, cached.Groups)
	}
}

// TestPostMapReleaseKeepsFirstBlocks: a pool over more blocks than the
// scan cache keeps releases them last first, so what the cache keeps
// is the pool's first blocks — the ones the next fill over the same
// splits takes first — not its last.
func TestPostMapReleaseKeepsFirstBlocks(t *testing.T) {
	env, err := NewEnv(EnvConfig{DataNodes: 3, BlockSize: 1 << 14, Replication: 1, Seed: 5, CacheBytes: 3 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile("/kv", kvData()); err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits("/kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	version, err := env.FS.Version("/kv")
	if err != nil {
		t.Fatal(err)
	}
	sources, err := newRecordSources(env, "/kv", [][]dfs.Split{splits}, Options{Sampler: PostMapSampling, Seed: 3}, 0, decode{Format: colscan.FormatKV}, nil)
	if err != nil {
		t.Fatal(err)
	}
	releaseSources(sources)
	kept := func(sp dfs.Split) bool {
		b, ok := env.Scan.Peek(colscan.BlockKey{Path: "/kv", Version: version, Offset: sp.Offset, Length: sp.Length, Format: colscan.FormatKV})
		b.Release()
		return ok
	}
	if n := env.Scan.Stats().Blocks; len(splits) < 2*n || n == 0 {
		t.Fatalf("fixture: the cache keeps %d of %d blocks", n, len(splits))
	}
	if !kept(splits[0]) || kept(splits[len(splits)-1]) {
		t.Fatalf("after the release the cache keeps the first block: %v, the last: %v; want the first only", kept(splits[0]), kept(splits[len(splits)-1]))
	}
}
