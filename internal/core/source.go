package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/colscan"
	"repro/internal/dfs"
	"repro/internal/jobs"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sampling"
	"repro/internal/simcost"
)

// recordSource is one mapper's retained sampling stream over its owned
// splits. DrawCols extends the without-replacement sample by up to k
// records, appended to out as parsed columns (it reports how many, plus
// sampling.ErrExhausted once the owned region is dry), and Weight is
// proportional to the number of records the source covers, so a uniform
// draw across several sources can be apportioned by weight. Sources
// outlive the job that created them: a kept run (Retained) keeps
// drawing from them across ingest batches, which is what preserves
// the without-replacement guarantee between the initial answer and later
// refreshes. Release ends a source: it gives back the decoded blocks the
// source holds from env.Scan, and nothing may be drawn after it. Whoever
// drops a source releases it.
type recordSource interface {
	DrawCols(k int, out *colscan.Cols) (int, error)
	Weight() int64
	Release()
}

// ParseKV is a custom record parser: one input line to a (group key,
// value) pair — the native shape of MapReduce data. The samplers apply
// it where they read the line (sampling.Parser); the engine never sees
// it.
type ParseKV func(line string) (key string, value float64, err error)

// ErrBadRecord re-exports the decode layer's errors.Is-able sentinel:
// malformed lines and non-finite (NaN/±Inf) values, whether a built-in
// format or a custom parser met them. A run that samples a poisoned
// record fails with it instead of corrupting the estimate.
var ErrBadRecord = colscan.ErrBadRecord

// TabKV parses the "key\tvalue" records produced by workload.KVSpec.
// NaN/±Inf values and tab-less lines are rejected wrapping ErrBadRecord
// (with bounded quoting — a malformed multi-MB line must not balloon
// the run's error).
func TabKV(line string) (string, float64, error) {
	k, v, err := colscan.ParseKVString(line)
	if err != nil {
		return "", 0, fmt.Errorf("core: %w", err)
	}
	return k, v, nil
}

// Route says how a grouped run decodes its records — a sum, exactly one
// field set: Format for records a built-in columnar format describes
// (TabRoute), or Parse for anything else.
type Route struct {
	Parse  ParseKV
	Format colscan.Format
}

// TabRoute is the grouped default: "key\tvalue" records under the
// built-in columnar decoder.
func TabRoute() Route { return Route{Format: colscan.FormatKV} }

// decode is how a run's samplers turn record lines into columns — a
// sum, exactly one side set: a built-in Format (decoded by colscan,
// shared through env.Scan) or a custom Parser (applied by the samplers
// wherever they read a line). Nothing downstream of the samplers can
// tell which it was.
type decode struct {
	Format colscan.Format
	Parser *sampling.Parser
}

// groupedDecode resolves how a grouped run over route (and an optional
// plan) decodes records: the plan's input format when there is a plan,
// else the route's one set field. A route that sets both fields or
// neither is rejected.
func groupedDecode(route Route, prog *plan.Program) (decode, error) {
	if prog != nil {
		return decode{Format: prog.InputFormat()}, nil
	}
	if (route.Parse != nil) == (route.Format != colscan.FormatNone) {
		return decode{}, errors.New("core: Route needs exactly one of Parse (a custom parser) or Format (a built-in format)")
	}
	if route.Parse != nil {
		return decode{Parser: &sampling.Parser{Parse: route.Parse, Keyed: true}}, nil
	}
	return decode{Format: route.Format}, nil
}

// scalarDecode resolves how a scalar run of job (and an optional plan)
// decodes records: the plan's input format when there is a plan (the
// filter may read the key column even though the statistics only see
// numbers), else the job's ScanFormat, or — for a job without one — its
// own Parse, adapted as a custom parser.
func scalarDecode(job jobs.Numeric, prog *plan.Program) decode {
	if prog != nil {
		return decode{Format: prog.InputFormat()}
	}
	if job.ScanFormat != colscan.FormatNone {
		return decode{Format: job.ScanFormat}
	}
	return decode{Parser: &sampling.Parser{Parse: func(line string) (string, float64, error) {
		v, err := job.Parse(line)
		return "", v, err
	}}}
}

// enable puts a pre-map sampler's SampleCols on this decode.
func (d decode) enable(s *sampling.PreMap, cache *colscan.Cache) error {
	if d.Parser != nil {
		s.EnableParser(d.Parser)
		return nil
	}
	return s.EnableColumnar(cache, d.Format)
}

// scanSplit reads every record sp owns through its own LineReader,
// which charges the read, and decodes each onto out.
func (d decode) scanSplit(v dfs.View, sp dfs.Split, out *colscan.Cols) error {
	rd, err := v.NewLineReader(sp, 0)
	if err != nil {
		return err
	}
	for rd.Next() {
		if d.Parser != nil {
			err = d.Parser.AppendLine(out, rd.Text())
		} else {
			err = colscan.AppendParsedLine(out, d.Format, rd.Bytes())
		}
		if err != nil {
			return fmt.Errorf("core: %s@%d: %w", sp.Path, rd.RecordOffset(), err)
		}
	}
	return rd.Err()
}

// preMapSource wraps the Algorithm 2 sampler. Draws are charged as
// mapper input records (the records delivered to the sampling mapper).
type preMapSource struct {
	s       *sampling.PreMap
	metrics *simcost.Metrics
}

func (p preMapSource) DrawCols(k int, out *colscan.Cols) (int, error) {
	n, err := p.s.SampleCols(k, out)
	p.metrics.Charge(simcost.Snapshot{RecordsRead: int64(n)})
	return n, err
}

func (p preMapSource) Weight() int64 { return p.s.OwnedBytes() }

func (p preMapSource) Release() { p.s.Release() }

// errSource is a source whose region could not be scanned (e.g. a block
// with no live replica during post-map pool filling). Every draw returns
// the scan error, so the owning mapper task fails and is tolerated as a
// lost mapper (§3.4) — exactly as if the scan had failed inside the map
// task — instead of the whole run aborting.
type errSource struct{ err error }

func (e errSource) DrawCols(int, *colscan.Cols) (int, error) { return 0, e.err }
func (e errSource) Weight() int64                            { return 0 }
func (e errSource) Release()                                 {}

// xformColSource pushes a compiled plan into a sampling stream: draws
// from the inner source are raw records, the program's vectorized
// kernels filter/derive/label them, and only surviving transformed
// records reach the caller — so k means "k post-filter records" and
// every expansion target upstream is denominated in effective
// (subpopulation) records. prefiltered marks inner streams whose σ
// already ran at pool-fill time (AddBlockKept), where the rejection
// loop degenerates to a single transform pass.
type xformColSource struct {
	inner       recordSource
	prog        *plan.Program
	prefiltered bool
	sc          *plan.Scratch
	raw         colscan.Cols
}

func (x *xformColSource) DrawCols(k int, out *colscan.Cols) (int, error) {
	got := 0
	for got < k {
		// Ask for the remaining shortfall in raw records. Under a
		// selective σ one raw batch yields fewer than asked, so loop;
		// chunking does not change the inner draw sequence (a stream
		// drawn 10+10 equals one drawn 20).
		x.raw.Reset()
		n, err := x.inner.DrawCols(k-got, &x.raw)
		if n > 0 {
			kept, aerr := x.prog.Apply(x.sc, &x.raw, out, x.prefiltered)
			if aerr != nil {
				return got, aerr
			}
			got += kept
		}
		if err != nil {
			return got, err // sampling.ErrExhausted passes through
		}
	}
	return got, nil
}

// Weight stays proportional to the records the source covers: a
// prefiltered pool counts exactly its kept records; a pre-map stream
// keeps its byte weight (selectivity is assumed uniform across owned
// regions, as record density already is).
func (x *xformColSource) Weight() int64 { return x.inner.Weight() }

func (x *xformColSource) Release() { x.inner.Release() }

// withPlan pushes prog into inner's draws (inner itself without a plan).
func withPlan(inner recordSource, prog *plan.Program, prefiltered bool) recordSource {
	if prog == nil {
		return inner
	}
	return &xformColSource{inner: inner, prog: prog, prefiltered: prefiltered, sc: plan.NewScratch()}
}

// newRecordSources builds one retained sampling stream per mapper over
// the given split ownership, per opts.Sampler. seedSalt decorrelates
// streams built for different ingest generations of the same maintained
// run (0 for the initial run); determinism follows the engine-wide
// contract — streams depend only on (Seed, seedSalt, mapper index).
//
// Under a built-in format, pre-map samplers resolve hot splits against
// decoded blocks shared through env.Scan and post-map pools reference
// those same cached blocks; under a custom parser the samplers parse
// what they read themselves and share nothing.
//
// For post-map sampling this performs the full scan of the owned splits
// (Algorithm 1 pools every record before drawing), with the per-mapper
// scans running concurrently as they would inside the map tasks. A scan
// failure (e.g. a block with no live replica) yields an errSource for
// that mapper rather than failing construction, preserving the §3.4
// behaviour: the mapper fails, the run finishes on surviving data.
//
// A non-nil prog pushes the compiled plan into every stream: post-map
// pools are filled through the vectorized σ kernel (a pool holds each
// cached decoded block with the selection memoized on it — the block
// and the memo are shared, never re-decoded or mutated), and every
// stream is wrapped so draws deliver transformed post-filter records.
func newRecordSources(env *Env, path string, owned [][]dfs.Split, opts Options, seedSalt uint64, dec decode, prog *plan.Program) ([]recordSource, error) {
	view := env.View()
	var version, size int64
	if opts.Sampler == PostMapSampling {
		var err error
		if version, err = view.Version(path); err != nil {
			return nil, err
		}
		if size, err = view.Stat(path); err != nil {
			return nil, err
		}
	}
	sources := make([]recordSource, len(owned))
	err := pool.ForEach(len(owned), len(owned), func(idx int) error {
		if opts.Sampler == PostMapSampling {
			pmap := sampling.NewPostMapCols(opts.Seed + seedSalt + uint64(idx)*7919)
			var keepSc *plan.Scratch
			if prog != nil && prog.HasFilter() {
				keepSc = plan.NewScratch()
			}
			for _, sp := range owned[idx] {
				var blk *colscan.Block
				var err error
				if dec.Parser != nil {
					blk, err = dec.Parser.ParseSplit(view, sp)
				} else {
					blk, err = colscan.LoadSplit(env.Scan, view, path, version, size, sp.Offset, sp.Length, dec.Format)
				}
				if err != nil {
					pmap.Release()
					sources[idx] = errSource{err: err}
					return nil
				}
				// The pool-filling scan delivered every record of the
				// split to this mapper.
				env.Metrics.Charge(simcost.Snapshot{RecordsRead: int64(blk.NumRecords())})
				if keepSc != nil {
					kept := prog.KeepBlock(keepSc, blk, nil)
					if dec.Parser != nil || env.Scan == nil {
						kept = slices.Clone(kept) // keepSc's buffer: no memo
					}
					pmap.AddBlockKept(blk, kept)
				} else {
					pmap.AddBlock(blk)
				}
			}
			sources[idx] = withPlan(pmap, prog, keepSc != nil)
			return nil
		}
		sampler, err := sampling.NewPreMapOwned(view, path, owned[idx], opts.Seed+seedSalt+uint64(idx)*104729)
		if err != nil {
			return err
		}
		if err := dec.enable(sampler, env.Scan); err != nil {
			return err
		}
		sources[idx] = withPlan(preMapSource{s: sampler, metrics: env.Metrics}, prog, false)
		return nil
	})
	if err != nil {
		releaseSources(sources)
		return nil, err
	}
	return sources, nil
}

// repinner is implemented by sources whose draws read the DFS through a
// view they hold. Repin re-points them — after a build over a snapshot,
// back at the live filesystem: a source that kept the snapshot would
// keep that commit's whole namespace and file states alive (an append
// clones the block list, so a watch retaining one source set per
// refresh would hold O(appends²) pointers), and would never see the
// file grow.
type repinner interface {
	Repin(v dfs.View)
}

func (p preMapSource) Repin(v dfs.View) { p.s.Repin(v) }

func (x *xformColSource) Repin(v dfs.View) {
	if r, ok := x.inner.(repinner); ok {
		r.Repin(v)
	}
}

// releaseSources releases every source built (nil entries are skipped).
func releaseSources(sources []recordSource) {
	for _, s := range sources {
		if s != nil {
			s.Release()
		}
	}
}

// repinSources re-points every view-pinned source (post-map pools hold
// their records in memory and need none).
func repinSources(sources []recordSource, v dfs.View) {
	for _, s := range sources {
		if r, ok := s.(repinner); ok {
			r.Repin(v)
		}
	}
}
