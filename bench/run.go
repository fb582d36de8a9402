package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/earl"
	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/serve"
	"repro/internal/simcost"
)

// sigma is the error bound every op asks for (the spec default).
const sigma = 0.05

// runConfig is one invocation's knobs. The command line sets seed,
// seconds and trace; the smoke test shrinks the rest.
type runConfig struct {
	seed    uint64
	seconds float64 // measured seconds of the whole run, split over reps
	reps    int
	records int // records in the workload's file
	procs   int // GOMAXPROCS and closed-loop client connections
	// calRounds is the kernel runs per reading of the box's speed.
	calRounds int
	outDir    string
}

// counters is every public counter the layers expose, read together so
// a phase can be differenced.
type counters struct {
	sim     simcost.Snapshot
	scan    colscan.CacheStats
	journal dfs.JournalStats
	srv     serve.Stats
	cpu     time.Duration // process user + system time
	mallocs uint64
	gcPause time.Duration
}

func (f *fixture) counters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		sim:     f.env.Metrics.Snapshot(),
		scan:    f.env.Scan.Stats(),
		journal: f.env.FS.JournalStats(),
		srv:     f.srv.Stats(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// phase is what one timed closed-loop phase observed.
type phase struct {
	wall      time.Duration
	attempted int
	failed    int
	lat       []float64 // main-op request→report latency, ms
	appendMs  []float64 // POST /append request→ack (ingest)
	refreshMs []float64 // append ack → refreshed report (ingest)
	cycles    int       // completed ingest cycles
	appended  int64     // acknowledged appended bytes
	covered   int       // coverage checks whose interval held the exact value
	checks    int
	settled   int      // main-op answers that converged or fell back to exact
	fallbacks int      // main-op answers that fell back to the exact job
	rounds    int      // sum of the answers' Iterations
	sampled   int      // sum of the answers' SampleSize
	problems  []string // correctness-gate violations
	before    counters
	after     counters
}

func (p *phase) problemf(format string, args ...any) {
	if len(p.problems) < 8 { // enough to diagnose; a broken run would print thousands
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's observations into p.
func (p *phase) merge(c *phase) {
	p.attempted += c.attempted
	p.failed += c.failed
	p.lat = append(p.lat, c.lat...)
	p.appendMs = append(p.appendMs, c.appendMs...)
	p.refreshMs = append(p.refreshMs, c.refreshMs...)
	p.cycles += c.cycles
	p.appended += c.appended
	p.covered += c.covered
	p.checks += c.checks
	p.settled += c.settled
	p.fallbacks += c.fallbacks
	p.rounds += c.rounds
	p.sampled += c.sampled
	for _, s := range c.problems {
		p.problemf("%s", s)
	}
}

// mainOps is the number of main ops that returned a report.
func (p *phase) mainOps() int { return len(p.lat) }

// unit is the op the workload's throughput counts: completed ingest
// cycles on the ingest workload (the writer's rate — the readers' rate
// is their latency), main ops elsewhere.
func (p *phase) unit(w *workloadDef) int {
	if w.ingest {
		return p.cycles
	}
	return p.mainOps()
}

// checkResult applies the per-report correctness gate and the coverage
// count to one main-op answer against the exact answer.
func (p *phase) checkResult(res opResult, exact truth) {
	if res.groups != nil {
		g := res.groups
		p.rounds += g.Iterations
		p.sampled += g.SampleSize
		if g.Converged {
			p.settled++
		}
		if len(g.Groups) != len(exact.groups) {
			p.problemf("grouped report has %d groups, oracle %d", len(g.Groups), len(exact.groups))
		}
		for key, want := range exact.groups {
			gr, ok := g.Groups[key]
			if !ok {
				p.problemf("group %s missing", key)
				continue
			}
			if g.Converged && gr.CV > sigma {
				p.problemf("group %s converged with cv %.4f > σ", key, gr.CV)
			}
			half := 1.96 * gr.CV * math.Abs(gr.Estimate)
			p.cover(gr.Estimate-half, gr.Estimate+half, want)
		}
		return
	}
	if len(res.reports) != len(exact.stats) {
		p.problemf("%d reports for %d statistics", len(res.reports), len(exact.stats))
		return
	}
	p.rounds += res.reports[0].Iterations
	p.sampled += res.reports[0].SampleSize
	if res.reports[0].UsedFull {
		p.fallbacks++
	}
	settled := true
	for i, r := range res.reports {
		settled = p.checkReport(r, exact.stats[i]) && settled
	}
	if settled {
		p.settled++
	}
}

// checkReport gates one scalar report and counts its interval; it
// returns whether the report converged or fell back to exact.
func (p *phase) checkReport(r core.Report, want float64) bool {
	if r.Converged && r.CV > sigma {
		p.problemf("%s: converged with cv %.4f > σ", r.Job, r.CV)
	}
	p.cover(r.CILo, r.CIHi, want)
	return r.Converged || r.UsedFull
}

// cover counts one interval against the exact value; the slack is for
// intervals that collapse onto it (count over fixed-width records).
func (p *phase) cover(lo, hi, want float64) {
	slack := 1e-9 * math.Abs(want)
	p.checks++
	if lo-slack <= want && want <= hi+slack {
		p.covered++
	}
}

// timed runs one closed-loop phase: clients callers, each sending its
// next request only when the previous one returned, for d (query
// workloads) or until the ingest client finishes cycles appends —
// within d too when capped is set.
func (f *fixture) timed(d time.Duration, clients, cycles int, capped bool, stream uint64) *phase {
	from := f.nextBatch
	f.nextBatch += cycles
	parts := make([]*phase, f.w.clients(clients))
	var stop atomic.Bool
	var wg sync.WaitGroup
	runtime.GC()
	p := &phase{before: f.counters()}
	start := time.Now()
	deadline := start.Add(d)
	var until time.Time
	if capped {
		until = deadline
	}
	for ci := range parts {
		parts[ci] = &phase{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			if f.w.ingest && ci == 0 {
				f.ingestLoop(c, parts[ci], from, from+cycles, until)
				stop.Store(true)
				return
			}
			f.queryLoop(c, parts[ci], stream, ci, func() bool {
				if f.w.ingest {
					return stop.Load()
				}
				return !time.Now().Before(deadline)
			})
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.after = f.counters()
	for _, c := range parts {
		p.merge(c)
	}
	return p
}

// queryLoop sends main ops until done reports true.
func (f *fixture) queryLoop(c *http.Client, p *phase, stream uint64, client int, done func() bool) {
	spec := f.w.spec
	for i := 0; !done(); i++ {
		spec.Seed = opSeed(stream, client, i)
		// The exact answer moves while appends land; batches come from
		// the file's own distribution, so the mean after the appends
		// acknowledged so far is within 1e-4 of any version the run saw.
		exact := f.ds.truth
		if f.w.ingest {
			exact = truth{stats: []float64{f.ds.meanAfter[f.srv.Stats().Appends]}}
		}
		p.attempted++
		t0 := time.Now()
		res, err := f.do(c, spec)
		if err != nil {
			p.failed++
			p.problemf("query: %v", err)
			continue
		}
		p.lat = append(p.lat, ms(time.Since(t0)))
		p.checkResult(res, exact)
	}
}

// ingestLoop runs the append→refresh cycles of batches [from, to),
// stopping early once until (when set) has passed.
func (f *fixture) ingestLoop(c *http.Client, p *phase, from, to int, until time.Time) {
	for k := from; k < to && (until.IsZero() || time.Now().Before(until)); k++ {
		p.attempted++
		t0 := time.Now()
		if err := f.postAppend(c, k); err != nil {
			p.failed++
			p.problemf("append %d: %v", k, err)
			return // later cycles would be checked against the wrong file
		}
		t1 := time.Now()
		p.appendMs = append(p.appendMs, ms(t1.Sub(t0)))
		p.appended += appendBatch * 19 // fixed-width records: 18 bytes + newline

		p.attempted++
		info, err := f.watchReport(c)
		if err != nil {
			p.failed++
			p.problemf("watch report %d: %v", k, err)
			return
		}
		p.refreshMs = append(p.refreshMs, ms(time.Since(t1)))
		p.cycles++
		if info.Refreshes != k+1 {
			p.problemf("after append %d the watch has refreshed %d times", k+1, info.Refreshes)
		}
		if len(info.Reports) != len(f.w.watchStats) {
			p.problemf("watch returned %d reports", len(info.Reports))
			continue
		}
		// A refreshed report must stay settled and say so honestly. Its
		// interval stays out of ci_coverage: the maintained sample
		// carries over from refresh to refresh, so one unlucky initial
		// sample would miss on every cycle of a repetition.
		for _, r := range info.Reports {
			if r.Converged && r.CV > sigma {
				p.problemf("watch %s: converged with cv %.4f > σ", r.Job, r.CV)
			}
			if !r.Converged && !r.UsedFull {
				p.problemf("watch %s after append %d: neither converged nor exact", r.Job, k+1)
			}
		}
	}
}

// checkIngestEnd is the ingest workload's durability gate: the file
// holds exactly the acknowledged bytes, one refresh ran per append with
// two subscribers, and (when replay is set — it costs seconds)
// replaying the journal reproduces the file.
func (f *fixture) checkIngestEnd(p *phase, initial int64, replay bool) {
	want := initial + p.appended
	if size, err := f.env.FS.Stat(f.w.path); err != nil || size != want {
		p.problemf("file is %d bytes (err %v), acknowledged %d", size, err, want)
	}
	if got := p.after.srv.RefreshesServed - p.before.srv.RefreshesServed; got != int64(p.cycles) {
		p.problemf("%d refreshes served for %d appends", got, p.cycles)
	}
	if !replay {
		return
	}
	rec, _, err := earl.RecoverCluster(f.envCfg, f.cluster.JournalBytes())
	if err != nil {
		p.problemf("journal replay: %v", err)
		return
	}
	if size, err := rec.Env().FS.Stat(f.w.path); err != nil || size != want {
		p.problemf("recovered file is %d bytes (err %v), acknowledged %d", size, err, want)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repetition is one fresh-cluster repetition's end-to-end numbers.
type repetition struct {
	phase  *phase
	setupS float64
	// setupSlow and timedSlow are the box's slowdown (calibrate.go)
	// while the set-up and the timed phase ran.
	setupSlow, timedSlow float64
	heapMB               float64
	identity             [2]opResult
}

// measure runs the workload's repetitions: fresh cluster, untimed
// warm-up, one timed phase, forced GC, checks.
func measure(w *workloadDef, cfg runConfig) ([]repetition, error) {
	perRep := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
	cycles := 0
	if w.ingest {
		cycles = max(1, int(math.Round(perRep.Seconds()*w.cyclesPerSecond)))
	}
	reps := make([]repetition, 0, cfg.reps)
	cal := newCalibrator(cfg.procs, cfg.calRounds)
	for r := 0; r < cfg.reps; r++ {
		// The box's speed is read before set-up, between set-up and the
		// timed phase, and after it; each part is scaled by the mean of
		// the readings on either side of it.
		before := cal.slowdown()
		f, err := newFixture(w, cfg, cycles)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		between := cal.slowdown()
		initial, err := f.env.FS.Stat(w.path)
		if err != nil {
			f.close()
			return nil, err
		}
		p := f.timed(perRep, cfg.procs, cycles, false, cfg.seed*1_000_003+uint64(r))
		after := cal.slowdown()
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		if w.ingest {
			f.checkIngestEnd(p, initial, r == cfg.reps-1)
		}
		f.close()
		reps = append(reps, repetition{
			phase: p, setupS: f.setup.Seconds(),
			setupSlow: (before + between) / 2, timedSlow: (between + after) / 2,
			heapMB: float64(mem.HeapAlloc) / 1e6, identity: f.identity,
		})
	}
	return reps, nil
}

// gate folds the repetitions into the run's correctness verdict.
func gate(w *workloadDef, reps []repetition) []string {
	var problems []string
	covered, checks, settled, answers := 0, 0, 0, 0
	for i, r := range reps {
		for _, s := range r.phase.problems {
			problems = append(problems, fmt.Sprintf("rep %d: %s", i, s))
		}
		covered += r.phase.covered
		checks += r.phase.checks
		settled += r.phase.settled
		answers += r.phase.mainOps()
		// Every fresh cluster built from the seed answers the fixed-seed
		// spec identically, over the front door and by core.RunPlan.
		if !sameBits(r.identity[0], r.identity[1]) || !sameBits(r.identity[0], reps[0].identity[0]) {
			problems = append(problems, fmt.Sprintf("rep %d: fixed-seed answer is not bit-identical", i))
		}
	}
	if checks == 0 {
		return append(problems, "no report was checked")
	}
	// Coverage must reach 0.80 — or, on a run with few reports, not sit
	// significantly (3 binomial standard errors) below it.
	cov := float64(covered) / float64(checks)
	if floor := 0.80 - 3*math.Sqrt(0.8*0.2/float64(checks)); cov < floor {
		problems = append(problems, fmt.Sprintf("ci coverage %.3f over %d checks is below %.3f", cov, checks, floor))
	}
	// The engine stops a grouped run on the partitions' average error,
	// so a report may honestly say "not converged"; a run where more
	// than a tenth do is buying speed with accuracy.
	if share := float64(settled) / float64(answers); share < 0.90 {
		problems = append(problems, fmt.Sprintf("only %.3f of %d answers converged or fell back to exact", share, answers))
	}
	sort.Strings(problems)
	return problems
}
