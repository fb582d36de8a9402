package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"time"

	"repro/earl"
	"repro/internal/bootstrap"
	"repro/internal/colscan"
	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/serve"
)

// tracedOps caps the traced pass; the time budget usually ends it first.
const tracedOps = 200

// probeAppends is how many direct appends the dfs and live probes make.
const probeAppends = 5

// runTraced is the -trace 1 run on one fixture: a closed-loop phase
// with tracing off whose counter deltas give the count metrics, the
// same loop at GOMAXPROCS=1, the traced pass (each op once untraced,
// once under spans, then replayed through the layers), and the probes
// that time single public functions on this workload's data.
func runTraced(w *workloadDef, cfg runConfig) (*result, error) {
	loop := time.Duration(cfg.seconds / 3 * float64(time.Second))
	single := time.Duration(cfg.seconds / 8 * float64(time.Second))
	budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
	loopCycles, singleCycles := 0, 0
	if w.ingest {
		loopCycles = max(1, int(loop.Seconds()*w.cyclesPerSecond))
		singleCycles = max(1, int(single.Seconds()*w.cyclesPerSecond))
	}
	// Three batches per traced ingest op: untraced twin, traced, replayed.
	f, err := newFixture(w, cfg, loopCycles+singleCycles+3*tracedOps+2*probeAppends)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer f.close()
	stream := cfg.seed*1_000_003 + 0x7ace

	p := f.timed(loop, cfg.procs, loopCycles, false, stream)
	m := map[string]float64{}
	// Replay what the cluster has committed so far: every later phase
	// appends, and replay time grows with the square of the appends.
	if m["journal.replay_ms"], err = timeMs(1, func() error {
		_, _, err := earl.RecoverCluster(f.envCfg, f.cluster.JournalBytes())
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: journal replay: %w", w.name, err)
	}
	runtime.GOMAXPROCS(1)
	p1 := f.timed(single, cfg.procs, singleCycles, true, stream+1)
	runtime.GOMAXPROCS(cfg.procs)
	if w.ingest {
		budget /= 2 // three appends per traced op: the file must not outgrow the phase above
	}

	rec := newRecorder()
	tp, err := f.tracedPass(rec, budget, stream+2)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	if err := f.probes(m, tp.last, cfg.calRounds); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	file, err := rec.write(cfg.outDir, w.name)
	if err != nil {
		return nil, err
	}
	st := foldSpans(rec.spans)
	f.countMetrics(m, p)
	m["proc.ops_per_s_p1"] = float64(p1.unit(w)) / p1.wall.Seconds()
	spanMetrics(m, st, tp)

	res := &result{
		Attempted: p.attempted + p1.attempted + tp.attempted,
		Failed:    p.failed + p1.failed + tp.failed,
		Metrics:   map[string]value{},
	}
	res.summary = summary{
		Workload: w.name, Seed: cfg.seed, GOMAXPROCS: cfg.procs, Clients: w.clients(cfg.procs),
		Metrics: map[string]detail{}, TraceFile: file, Ranking: rankLayers(st),
	}
	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.Name)
		}
		res.Metrics[def.Name] = value{v, def.Unit}
		res.summary.Metrics[def.Name] = detail{Value: v, Unit: def.Unit}
	}
	for _, ph := range []*phase{p, p1} {
		res.summary.Problems = append(res.summary.Problems, ph.problems...)
	}
	if v := m["trace.overhead_share"]; v >= 0.05 {
		res.summary.Notes = append(res.summary.Notes, fmt.Sprintf("trace overhead %.3f is 0.05 or more: do not trust this trace", v))
	}
	res.Correct = len(res.summary.Problems) == 0 && res.Failed == 0
	return res, nil
}

// tracedResult is what the traced pass hands to the metric assembly.
type tracedResult struct {
	attempted, failed int
	// overhead holds, per traced op, (traced − untraced) ÷ untraced
	// front-door latency against its untraced twin.
	overhead []float64
	last     replayed
	plannedN []float64
	plannedB []float64
	updates  []float64
}

// tracedPass runs the workload's traced op single-client until ops or
// budget run out.
func (f *fixture) tracedPass(rec *recorder, budget time.Duration, stream uint64) (*tracedResult, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	if f.w.ingest {
		return f.tracedIngest(rec, c, budget)
	}
	// A second server over the same cluster answers the in-process
	// twin of each HTTP op: same data and scan cache, its own result
	// cache, so the twin is not a cache hit.
	twin, err := serve.New(f.env, serve.Config{})
	if err != nil {
		return nil, err
	}
	root := "serve.http"
	if f.w.library {
		root = "earl.runmulti"
	}
	tp := &tracedResult{}
	spec := f.w.spec
	start := time.Now()
	for op := 1; op <= tracedOps && time.Since(start) < budget; op++ {
		spec.Seed = opSeed(stream, 0, 2*op)
		tp.attempted += 2
		t0 := time.Now()
		if _, err := f.do(c, spec); err != nil {
			tp.failed++
			continue
		}
		untraced := time.Since(t0)

		if !f.w.library { // earld would answer a repeated spec from its result cache
			spec.Seed = opSeed(stream, 0, 2*op+1)
		}
		var res opResult
		t0 = time.Now()
		parent, err := rec.time(root, 0, op, func() (err error) {
			res, err = f.do(c, spec)
			return err
		})
		if err != nil {
			tp.failed++
			continue
		}
		tp.overhead = append(tp.overhead, float64(time.Since(t0)-untraced)/float64(untraced))
		if !f.w.library {
			parent, err = rec.time("serve.query", parent, op, func() error {
				_, err := twin.Query(context.Background(), serve.QuerySpec{Spec: spec})
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		parent, err = rec.time("core.runplan", parent, op, func() error {
			_, err := core.RunPlan(f.env, spec, core.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		pq, err := core.PreparePlan(spec, core.Options{})
		if err != nil {
			return nil, err
		}
		if tp.last, err = f.replay(rec, parent, op, pq, res); err != nil {
			return nil, err
		}
		tp.updates = append(tp.updates, float64(tp.last.updates))
		tp.plannedB = append(tp.plannedB, float64(tp.last.b))
		if len(res.reports) > 0 {
			tp.plannedN = append(tp.plannedN, float64(res.reports[0].PlannedN))
		}
	}
	return tp, nil
}

// tracedIngest traces the ingest cycle. Each op sends three batches:
// an untraced HTTP cycle, the same cycle under a root span, and a
// replay that appends straight into the dfs (with colseg.Extend, a
// pure function, re-run on the same bytes as its child) and refreshes
// a maintained query of the benchmark's own through live. The replay
// cannot go through the server twice — an append is not repeatable —
// so the server's watch absorbs the replayed batch in its next refresh.
func (f *fixture) tracedIngest(rec *recorder, c *http.Client, budget time.Duration) (*tracedResult, error) {
	wspec := plan.Spec{Path: f.w.path, Stats: f.w.watchStats}
	own, _, err := live.WatchPlan(f.env, wspec, core.Options{})
	if err != nil {
		return nil, err
	}
	defer own.Close()
	tp := &tracedResult{}
	cycle := func(k int) error {
		if err := f.postAppend(c, k); err != nil {
			return err
		}
		_, err := f.watchReport(c)
		return err
	}
	fsys := f.env.FS
	start := time.Now()
	for op := 1; op <= tracedOps && time.Since(start) < budget; op++ {
		k := f.nextBatch
		f.nextBatch += 3
		tp.attempted += 2
		t0 := time.Now()
		if err := cycle(k); err != nil {
			tp.failed++
			continue
		}
		untraced := time.Since(t0)
		t0 = time.Now()
		root, err := rec.time("serve.http", 0, op, func() error { return cycle(k + 1) })
		if err != nil {
			tp.failed++
			continue
		}
		tp.overhead = append(tp.overhead, float64(time.Since(t0)-untraced)/float64(untraced))

		data := f.w.encode(f.ds.batches[k+2])
		sidecar, version, cover, err := f.sidecar()
		if err != nil {
			return nil, err
		}
		parent, err := rec.time("dfs.append", root, op, func() error { return fsys.Append(f.w.path, data) })
		if err != nil {
			return nil, err
		}
		if _, err := rec.time("colseg.extend", parent, op, func() error {
			_, err := colseg.Extend(sidecar, version, data, cover, fsys.BlockSize())
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := rec.time("live.refresh", root, op, func() error {
			_, err := own.RefreshAll()
			return err
		}); err != nil {
			return nil, err
		}
	}
	// The probes want a pilot and a resample count; the reader's op
	// (the identity spec, answered in the warm-up) supplies them through
	// one unrecorded replay.
	spec := f.w.spec
	spec.Seed = identitySeed
	pq, err := core.PreparePlan(spec, core.Options{})
	if err != nil {
		return nil, err
	}
	tp.last, err = f.replay(newRecorder(), 0, 0, pq, f.identity[0])
	return tp, err
}

// sidecar reads the workload file's whole sidecar with the version and
// coverage colseg.Extend needs.
func (f *fixture) sidecar() (sidecar []byte, version, cover int64, err error) {
	fsys := f.env.FS
	size, ok := fsys.SidecarStat(f.w.path)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%s has no sidecar", f.w.path)
	}
	sidecar = make([]byte, size)
	if _, err = fsys.ReadSidecarAt(f.w.path, 0, sidecar); err != nil {
		return nil, 0, 0, err
	}
	if version, err = fsys.Version(f.w.path); err != nil {
		return nil, 0, 0, err
	}
	cover, err = fsys.Stat(f.w.path)
	return sidecar, version, cover, err
}

// timeMs returns the median wall time of n calls of fn, in ms. It
// collects first: the probes before it leave tens of MB of garbage, and
// a collection landing inside fn would be charged to the wrong layer.
func timeMs(n int, fn func() error) (float64, error) {
	runtime.GC()
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(t0))
	}
	return median(xs), nil
}

// probes times single public functions of each layer on this
// workload's cluster and data. They run last: several mutate the file.
func (f *fixture) probes(m map[string]float64, last replayed, calRounds int) error {
	fsys, path := f.env.FS, f.w.path
	spec := f.w.spec
	spec.Seed = identitySeed
	pq, err := core.PreparePlan(spec, core.Options{})
	if err != nil {
		return err
	}
	if m["plan.prepare_ms"], err = timeMs(20, func() error {
		_, err := core.PreparePlan(spec, core.Options{})
		return err
	}); err != nil {
		return err
	}
	format := pq.Jobs[0].ScanFormat
	if pq.Prog != nil {
		format = pq.Prog.InputFormat()
	}
	splits, err := fsys.Splits(path, 0)
	if err != nil {
		return err
	}
	size, err := fsys.Stat(path)
	if err != nil {
		return err
	}
	version, err := fsys.Version(path)
	if err != nil {
		return err
	}
	sp := splits[0]

	// dfs: one split read raw; the whole file written back under a
	// scratch name (journal commit + block placement + sidecar build).
	buf := make([]byte, sp.Length)
	read, err := timeMs(5, func() error {
		_, err := fsys.ReadAt(path, sp.Offset, buf)
		return err
	})
	if err != nil {
		return err
	}
	m["dfs.read_ms_per_mb"] = read / (float64(sp.Length) / 1e6)
	whole, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	write, err := timeMs(1, func() error { return fsys.WriteFile("/bench/probe", whole) })
	if err != nil {
		return err
	}
	m["dfs.write_ms_per_mb"] = write / (float64(len(whole)) / 1e6)
	whole = nil

	// colscan and colseg: the same split by text decode and by sidecar.
	var blk *colscan.Block
	if m["colscan.decode_ms_per_block"], err = timeMs(3, func() (err error) {
		blk, err = colscan.Decode(fsys, path, size, sp.Offset, sp.Length, format)
		return err
	}); err != nil {
		return err
	}
	reader := colseg.NewReader(fsys)
	key := colscan.BlockKey{Path: path, Version: version, Offset: sp.Offset, Length: sp.Length, Format: format}
	if m["colseg.load_ms_per_block"], err = timeMs(6, func() error {
		_, ok, err := reader.LoadColumns(key)
		if err == nil && !ok {
			err = fmt.Errorf("sidecar does not cover %s [%d,+%d)", path, sp.Offset, sp.Length)
		}
		return err
	}); err != nil {
		return err
	}
	scSize, _ := fsys.SidecarStat(path)
	m["colseg.bytes_per_user_byte"] = float64(scSize) / float64(size)

	// plan: the compiled program over the decoded block.
	m["plan.apply_ns_per_record"], m["plan.selectivity"] = 0, 1
	if pq.Prog != nil {
		var in, out colscan.Cols
		blk.AppendAll(&in)
		sc := plan.NewScratch()
		kept := 0
		apply, err := timeMs(5, func() (err error) {
			out.Reset()
			kept, err = pq.Prog.Apply(sc, &in, &out, false)
			return err
		})
		if err != nil {
			return err
		}
		m["plan.apply_ns_per_record"] = apply * 1e6 / float64(in.Len())
		m["plan.selectivity"] = float64(kept) / float64(in.Len())
	}

	// bootstrap: the pilot resampled at the planned B, parallel and not.
	stat := pq.Jobs[0].Statistic
	for par, name := range []string{"bootstrap.mc_ms", "bootstrap.mc_p1_ms"} { // parallelism 0 = GOMAXPROCS, 1 = sequential
		if m[name], err = timeMs(5, func() error {
			rng := rand.New(rand.NewPCG(identitySeed, 0x626f6f74))
			_, err := bootstrap.ParallelMonteCarlo(rng, last.pilot, stat, max(last.b, 2), par)
			return err
		}); err != nil {
			return err
		}
	}

	// live and the write path: open a maintained query, then append
	// straight into the dfs and refresh it, a few times over.
	wspec := plan.Spec{Path: path, Stats: f.w.watchStats, Filter: f.w.spec.Filter, Derive: f.w.spec.Derive,
		GroupBy: f.w.spec.GroupBy, Sampler: f.w.spec.Sampler}
	if len(wspec.Stats) == 0 {
		wspec.Stats = f.w.spec.Stats
	}
	var q *live.Query
	var gq *live.GroupedQuery
	if m["live.watch_create_ms"], err = timeMs(1, func() (err error) {
		q, gq, err = live.WatchPlan(f.env, wspec, core.Options{})
		return err
	}); err != nil {
		return err
	}
	refresh := func() error {
		if gq != nil {
			_, err := gq.Refresh()
			return err
		}
		_, err := q.RefreshAll()
		return err
	}
	var appendMs, extendMs, refreshMs, refreshRecs []float64
	for i := 0; i < probeAppends; i++ {
		data := f.w.encode(f.ds.batches[f.nextBatch])
		f.nextBatch++
		sidecar, version, cover, err := f.sidecar()
		if err != nil {
			return err
		}
		t, err := timeMs(1, func() error {
			_, err := colseg.Extend(sidecar, version, data, cover, fsys.BlockSize())
			return err
		})
		if err != nil {
			return err
		}
		extendMs = append(extendMs, t)
		if t, err = timeMs(1, func() error { return fsys.Append(path, data) }); err != nil {
			return err
		}
		appendMs = append(appendMs, t)
		before := f.env.Metrics.Snapshot().RecordsRead
		if t, err = timeMs(1, refresh); err != nil {
			return err
		}
		refreshMs = append(refreshMs, t)
		refreshRecs = append(refreshRecs, float64(f.env.Metrics.Snapshot().RecordsRead-before))
	}
	if gq != nil {
		gq.Close()
	} else {
		q.Close()
	}
	m["dfs.append_ms"] = median(appendMs)
	m["colseg.extend_ms"] = median(extendMs)
	m["live.refresh_ms"] = median(refreshMs)
	m["live.records_per_refresh"] = median(refreshRecs)

	// journal: what it holds per byte callers stored.
	m["journal.bytes_per_user_byte"] = float64(fsys.JournalStats().Bytes) / float64(f.userBytes())

	// The box itself: it runs at two speeds and rounds short sleeps up,
	// and every per-layer time above is as the clock read it.
	m["proc.box_slowdown"] = newCalibrator(runtime.GOMAXPROCS(0), calRounds).slowdown()
	m["proc.sleep_100us_ms"], _ = timeMs(51, func() error { // cannot fail
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	return nil
}

// userBytes is what callers stored: the workload file as it stands and
// the probe's copy of it.
func (f *fixture) userBytes() int64 {
	var total int64
	for _, p := range []string{f.w.path, "/bench/probe"} {
		if n, err := f.env.FS.Stat(p); err == nil {
			total += n
		}
	}
	return total
}

// countMetrics turns the closed-loop phase's counter deltas and
// reports into the per-layer count metrics.
func (f *fixture) countMetrics(m map[string]float64, p *phase) {
	d := func(after, before int64) float64 { return float64(after - before) }
	ops := float64(max(p.mainOps(), 1))
	a, b := p.after, p.before
	sim := a.sim.Sub(b.sim)

	m["serve.lat_ms_p99"] = 0
	if len(p.lat) > 0 {
		m["serve.lat_ms_p99"] = percentile(p.lat, 0.99)
	}
	m["serve.append_ms_p50"], m["serve.refresh_ms_p50"], m["serve.refreshes_per_append"] = 0, 0, 0
	if p.cycles > 0 {
		m["serve.append_ms_p50"] = percentile(p.appendMs, 0.50)
		m["serve.refresh_ms_p50"] = percentile(p.refreshMs, 0.50)
		m["serve.refreshes_per_append"] = d(a.srv.RefreshesServed, b.srv.RefreshesServed) / d(a.srv.Appends, b.srv.Appends)
	}
	m["serve.watch_shared_share"] = 0
	if a.srv.WatchesOpened > 0 {
		m["serve.watch_shared_share"] = float64(a.srv.WatchesShared) / float64(a.srv.WatchesOpened)
	}
	m["serve.rejected"] = d(a.srv.Rejected, b.srv.Rejected) + d(a.srv.Expired, b.srv.Expired)
	m["serve.fail_share"] = float64(p.failed) / float64(max(p.attempted, 1))

	m["core.iterations"] = float64(p.rounds) / ops
	m["core.sample_size"] = float64(p.sampled) / ops
	m["core.exact_fallback_share"] = float64(p.fallbacks) / ops
	m["core.converged_share"] = float64(p.settled) / ops
	m["sampling.records_per_op"] = float64(sim.RecordsRead) / ops
	m["dfs.bytes_read_per_op"] = float64(sim.BytesRead) / ops

	m["colscan.hit_share"] = 0
	if look := d(a.scan.Hits, b.scan.Hits) + d(a.scan.Misses, b.scan.Misses); look > 0 {
		m["colscan.hit_share"] = d(a.scan.Hits, b.scan.Hits) / look
	}
	m["colscan.cache_mb"] = float64(a.scan.Bytes) / 1e6
	m["colseg.sidecar_reads_per_op"] = d(a.scan.SidecarReads, b.scan.SidecarReads) / ops
	m["colseg.sidecar_errors"] = d(a.scan.SidecarErrors, b.scan.SidecarErrors)
	m["dfs.pins_end"] = float64(a.journal.Pins)

	// Journal work of read-only ops: what the appends themselves
	// committed (one record each, payload included) is taken out.
	reads := float64(max(p.mainOps()+p.cycles, 1))
	m["journal.commits_per_query"] = (d(a.journal.Commits, b.journal.Commits) - float64(p.cycles)) / reads
	m["journal.bytes_per_query"] = max(d(a.journal.Bytes, b.journal.Bytes)-float64(p.appended), 0) / reads

	units := float64(max(p.unit(f.w), 1))
	cpu := a.cpu - b.cpu
	m["proc.cpu_ms_per_op"] = ms(cpu) / units
	m["proc.cpu_share"] = cpu.Seconds() / (p.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	m["proc.allocs_per_op"] = float64(a.mallocs-b.mallocs) / units
	m["proc.gc_pause_ms"] = ms(a.gcPause - b.gcPause)
	m["proc.goroutines_end"] = float64(runtime.NumGoroutine())
}

// spanMetrics turns the folded trace into the per-layer time metrics:
// medians over the traced ops, self time for spans that have children.
func spanMetrics(m map[string]float64, st spanStats, tp *tracedResult) {
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0 // the layer is not on this workload's traced path
		}
		return median(xs)
	}
	m["serve.http_ms"] = med(st.self["serve.http"])
	m["serve.query_ms"] = med(st.self["serve.query"])
	m["core.runplan_ms"] = med(st.dur["core.runplan"])
	m["core.coord_ms"] = med(st.self["core.runplan"])
	m["sampling.pilot_ms"] = med(st.dur["sampling.pilot"])
	m["sampling.draw_ms"] = med(st.dur["sampling.draw"])
	m["sampling.poolfill_ms"] = med(st.self["sampling.poolfill"])
	m["aes.ssabe_ms"] = med(st.dur["aes.ssabe"])
	m["aes.planned_n"] = med(tp.plannedN)
	m["aes.planned_b"] = med(tp.plannedB)
	m["delta.grow_ms"] = med(st.dur["delta.grow"])
	m["delta.updates_per_op"] = med(tp.updates)
	m["plan.keep_ms"] = med(st.dur["plan.keep"])
	m["trace.overhead_share"] = med(tp.overhead)
}
