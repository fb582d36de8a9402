package serve

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// holdServer builds a server whose scan cache is 4 MiB — less than one
// file's decoded blocks, so the release that ends a post-map query
// trims blocks out of the cache — with files[i].data written at
// files[i].path. Two runs execute at once, fewer than the default
// admission: while some runs have finished and released their blocks
// others still load, so a miss can decode into storage given back.
func holdServer(t *testing.T, files ...file) *Server {
	t.Helper()
	env, err := core.NewEnv(core.EnvConfig{BlockSize: 256 << 10, CacheBytes: 4 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(env, Config{MaxInFlight: 2, MaxQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := env.FS.WriteFile(f.path, f.data); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

type file struct {
	path string
	data []byte
}

// kvRecords renders n "k000i\t<value>" records over eight keys, each
// value one of 1 024 drawn uniformly from [0, 100) — built by appends
// from a rendered table, since formatting every record would dominate
// these tests under -race.
func kvRecords(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	table := make([][]byte, 1024)
	for i := range table {
		table[i] = strconv.AppendFloat(nil, rng.Float64()*100, 'f', 6, 64)
	}
	buf := make([]byte, 0, n*16)
	for range n {
		r := rng.Uint64()
		buf = append(buf, "k000"...)
		buf = append(buf, byte('0'+r%8), '\t')
		buf = append(buf, table[r>>3%1024]...)
		buf = append(buf, '\n')
	}
	return buf
}

// scanSpec is a filtered, derived, grouped post-map query: the shape
// that reads every block of the file cold.
func scanSpec(path string, seed uint64) QuerySpec {
	return QuerySpec{Spec: plan.Spec{Path: path, Stats: []string{"mean"}, Filter: `v > 20 && key != "k0007"`,
		Derive: "v * 2 + 1", GroupBy: "key", Sampler: "post-map", Sigma: 0.05, Seed: seed}}
}

// answer is what a query reports, without its timing and cost.
type answer struct {
	Report  core.Report
	Reports []core.Report
	Groups  *core.GroupedReport
}

// TestScanCacheHoldsReturn: /metrics counts the blocks a run or a watch
// holds, outside the budget. A burst of one-shots over a cache smaller
// than the file leaves nothing held and trims the cache to its budget;
// a watch opened after it misses on the trimmed blocks, building them
// on their storage, and holds its sample's blocks until it is closed. A
// forgotten release shows up here as held bytes that never return to 0.
func TestScanCacheHoldsReturn(t *testing.T) {
	// Parked storage is held through weak pointers. With the collector
	// off (the test allocates ≈ 50 MB), what the burst's trim parks is
	// still there for the watch's misses.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const path = "/t/held"
	s := holdServer(t, file{path, kvRecords(300_000, 5)})
	ctx := context.Background()
	var wg sync.WaitGroup
	for seed := range uint64(4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Query(ctx, scanSpec(path, seed+1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	burst := s.Metrics().Scan
	if burst.Held != 0 || burst.HeldBytes != 0 || burst.Bytes > burst.MaxBytes {
		t.Fatalf("after the burst: %+v; want nothing held, within budget", burst)
	}
	w, _, err := s.OpenWatch(ctx, scanSpec(path, 9))
	if err != nil {
		t.Fatal(err)
	}
	if sc := s.Metrics().Scan; sc.HeldBytes <= sc.MaxBytes || sc.Bytes > sc.MaxBytes || sc.Recycled == burst.Recycled {
		t.Fatalf("an open post-map watch: %+v; want its blocks held outside the budget, trimmed ones rebuilt on recycled storage", sc)
	}
	if err := s.CloseWatch(w.ID, w.Sub); err != nil {
		t.Fatal(err)
	}
	if sc := s.Metrics().Scan; sc.Held != 0 || sc.HeldBytes != 0 {
		t.Fatalf("after the watch closed: %+v; want nothing held", sc)
	}
}

// TestConcurrentScansOverRecycledBlocks: four filtered, grouped post-map
// one-shots over two files, a watch and a rewrite of the watched file
// run at once over a 4 MiB cache. Every answer equals the one the same
// query gives run alone, in turn, on an identical cluster, where each
// one-shot's misses decode into storage trimmed after the one before
// it. Run together, the one-shots share the blocks they all hold, so
// whether any miss finds storage given back depends on the
// interleaving; either way nothing stays held.
func TestConcurrentScansOverRecycledBlocks(t *testing.T) {
	scanned, watched := []string{"/t/scan0", "/t/scan1"}, "/t/watched"
	// The two scanned files decode to 4.5 MB together: the release that
	// ends a one-shot trims blocks of the other file.
	files := []file{{scanned[0], kvRecords(140_000, 5)}, {scanned[1], kvRecords(140_000, 6)}, {watched, kvRecords(60_000, 7)}}
	rewritten := kvRecords(40_000, 77)
	ctx := context.Background()
	type outcome struct {
		oneShots []answer
		watch    answer
	}
	run := func(concurrent bool) outcome {
		s := holdServer(t, files...)
		w, _, err := s.OpenWatch(ctx, scanSpec(watched, 11))
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{oneShots: make([]answer, 4)}
		steps := make([]func(), 0, 5)
		for i := range out.oneShots {
			steps = append(steps, func() {
				r, err := s.Query(ctx, scanSpec(scanned[i%2], uint64(i+1)))
				if err != nil {
					t.Error(err)
				}
				out.oneShots[i] = answer{r.Report, r.Reports, r.Groups}
			})
		}
		steps = append(steps, func() {
			if _, err := s.Rewrite(watched, rewritten); err != nil {
				t.Error(err)
			}
			info, err := s.WatchReport(ctx, w.ID)
			if err != nil {
				t.Error(err)
			}
			out.watch = answer{info.Report, info.Reports, info.Groups}
		})
		var wg sync.WaitGroup
		for _, step := range steps {
			if !concurrent {
				step()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				step()
			}()
		}
		wg.Wait()
		if err := s.CloseWatch(w.ID, w.Sub); err != nil {
			t.Fatal(err)
		}
		sc := s.Metrics().Scan
		if sc.Held != 0 || sc.HeldBytes != 0 || (!concurrent && sc.Recycled == 0) {
			t.Fatalf("concurrent=%v: %+v; want nothing held once every run and watch ended, and recycled loads in turn", concurrent, sc)
		}
		return out
	}
	serial := run(false)
	together := run(true)
	for i := range serial.oneShots {
		if !reflect.DeepEqual(together.oneShots[i], serial.oneShots[i]) {
			t.Errorf("one-shot %d run beside the others differs from its serial run:\n%+v\n%+v", i, together.oneShots[i], serial.oneShots[i])
		}
	}
	if !reflect.DeepEqual(together.watch, serial.watch) {
		t.Errorf("the rewritten watch differs from its serial run:\n%+v\n%+v", together.watch, serial.watch)
	}
}

// overlappingScan runs scanSpec as a one-shot that overlaps an open
// post-map watch of the same spec over one file, larger than the cache,
// and requires the one-shot to answer exactly as it does alone on a
// fresh server. It returns the scan cache's counters before and after
// the one-shot.
func overlappingScan(t *testing.T, path string) (before, after ScanCacheStats) {
	t.Helper()
	records := kvRecords(300_000, 5)
	ctx := context.Background()
	alone, err := holdServer(t, file{path, records}).Query(ctx, scanSpec(path, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := holdServer(t, file{path, records})
	w, _, err := s.OpenWatch(ctx, scanSpec(path, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.CloseWatch(w.ID, w.Sub); err != nil {
			t.Fatal(err)
		}
	}()
	before = s.Metrics().Scan
	if before.HeldBytes <= before.MaxBytes {
		t.Fatalf("the watch holds %d bytes, not more than the %d-byte cache", before.HeldBytes, before.MaxBytes)
	}
	got, err := s.Query(ctx, scanSpec(path, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("the overlapping one-shot was answered from the result cache")
	}
	overlapped, want := answer{got.Report, got.Reports, got.Groups}, answer{alone.Report, alone.Reports, alone.Groups}
	if !reflect.DeepEqual(overlapped, want) {
		t.Errorf("the overlapping one-shot differs from its run alone:\n%+v\n%+v", overlapped, want)
	}
	return before, s.Metrics().Scan
}

// TestOverlappingScanDecodesNothing: a one-shot that overlaps an open
// post-map watch over the same file, larger than the cache, finds every
// block the watch holds: it decodes and reads no sidecar, and answers
// exactly as it does alone on a fresh server.
func TestOverlappingScanDecodesNothing(t *testing.T) {
	before, after := overlappingScan(t, "/t/overlap")
	if after.Misses != before.Misses || after.SidecarReads != before.SidecarReads {
		t.Fatalf("the overlapping one-shot added %d misses and %d sidecar reads, want a run with none",
			after.Misses-before.Misses, after.SidecarReads-before.SidecarReads)
	}
}

// TestOverlappingScanFiltersOnce: the watch's fill left σ's selection
// memoized on every block it holds, so an overlapping one-shot of the
// same spec builds none — each of its blocks is a memo hit — and still
// answers exactly as it does alone on a fresh server.
func TestOverlappingScanFiltersOnce(t *testing.T) {
	before, after := overlappingScan(t, "/t/filter-once")
	if before.Selections == 0 || after.Selections != before.Selections || after.SelectionHits == before.SelectionHits {
		t.Fatalf("the watch built %d selections; the overlapping one-shot built %d and read %d memos, want 0 built",
			before.Selections, after.Selections-before.Selections, after.SelectionHits-before.SelectionHits)
	}
}

// TestConcurrentGroupedOneShotsAtDefaults: at the default admission,
// four clients' filtered, grouped post-map one-shots run at once, each
// with four pipelined mappers parked on its round barrier — sixteen map
// tasks on five nodes, so a cluster that made a task wait for capacity
// would hang here. Each repetition, on a fresh server so nothing is
// answered from cache, must finish within its deadline, and every
// answer must equal the same query run alone.
func TestConcurrentGroupedOneShotsAtDefaults(t *testing.T) {
	const path, clients, reps = "/t/crowd", 4, 5
	records := kvRecords(50_000, 3)
	server := func() *Server {
		// 64 KiB blocks split the file's 0.8 MB so a run gets four mappers.
		env, err := core.NewEnv(core.EnvConfig{BlockSize: 64 << 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.FS.WriteFile(path, records); err != nil {
			t.Fatal(err)
		}
		return s
	}
	ctx := context.Background()
	ask := func(s *Server, c int) (answer, error) {
		r, err := s.Query(ctx, scanSpec(path, uint64(c+1)))
		return answer{r.Report, r.Reports, r.Groups}, err
	}
	alone, want := server(), make([]answer, clients)
	for c := range want {
		var err error
		if want[c], err = ask(alone, c); err != nil {
			t.Fatal(err)
		}
	}
	for rep := range reps {
		s := server()
		got := make([]answer, clients)
		errs := make([]error, clients)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for c := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[c], errs[c] = ask(s, c)
			}()
		}
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("repetition %d: %d concurrent one-shots still running after 10 s", rep, clients)
		}
		for c := range got {
			if errs[c] != nil {
				t.Fatalf("repetition %d, client %d: %v", rep, c, errs[c])
			}
			if !reflect.DeepEqual(got[c], want[c]) {
				t.Errorf("repetition %d: client %d's answer differs from its serial run:\n%+v\n%+v", rep, c, got[c], want[c])
			}
		}
	}
}
