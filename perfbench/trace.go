package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbp"
	"repro/internal/harness"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

// The traced pass attributes host time to the simulator's layers from
// outside the program: it runs each spec several times, each run
// isolating one layer through the public constructors, and compares
// the pieces against the untraced harness.Run of the same spec.
//
//   - engine: the spec assembled as harness.Run assembles it, with the
//     prefetch engine wrapped in timedEngine.  Its time includes the
//     hierarchy accesses the engine makes to issue prefetches.
//   - ir: the instruction stream drained with no consumer.
//   - cache: the drained load/store stream replayed into a fresh
//     hierarchy under a synthetic in-order clock.
//   - cpu: the spec under perfect data memory with no engine, less the
//     emission time.
//
// The pieces need not add up to the untraced run; the gap is reported
// as trace.unattributed_frac.

// Engine methods, indexing timedEngine's counters.
const (
	mLoadIssue = iota
	mLoadComplete
	mCommit
	mSWPrefetch
	mTick
	mNextEventAt
	nMethods
)

// sampleMask selects which engine calls are timed: one in
// sampleMask+1, chosen by a xorshift stream so the choice cannot lock
// onto a loop of the simulated program.  Timing every call would cost
// more than many of the calls themselves.
const sampleMask = 15

// timedEngine counts every call into a prefetch engine and times a
// sample of them.
type timedEngine struct {
	inner     cpu.PrefetchEngine
	rng       uint64
	calls     [nMethods]uint64
	sampled   [nMethods]uint64
	sampledNs [nMethods]int64
}

func newTimedEngine(inner cpu.PrefetchEngine) *timedEngine {
	return &timedEngine{inner: inner, rng: 0x9E3779B97F4A7C15}
}

func (e *timedEngine) sample(m int) bool {
	e.calls[m]++
	e.rng ^= e.rng << 13
	e.rng ^= e.rng >> 7
	e.rng ^= e.rng << 17
	return e.rng&sampleMask == 0
}

func (e *timedEngine) done(m int, t0 time.Time) {
	e.sampledNs[m] += int64(time.Since(t0))
	e.sampled[m]++
}

func (e *timedEngine) OnLoadIssue(now uint64, d *ir.DynInst) {
	if !e.sample(mLoadIssue) {
		e.inner.OnLoadIssue(now, d)
		return
	}
	t0 := time.Now()
	e.inner.OnLoadIssue(now, d)
	e.done(mLoadIssue, t0)
}

func (e *timedEngine) OnLoadComplete(now uint64, d *ir.DynInst) {
	if !e.sample(mLoadComplete) {
		e.inner.OnLoadComplete(now, d)
		return
	}
	t0 := time.Now()
	e.inner.OnLoadComplete(now, d)
	e.done(mLoadComplete, t0)
}

func (e *timedEngine) OnCommit(now uint64, d *ir.DynInst) {
	if !e.sample(mCommit) {
		e.inner.OnCommit(now, d)
		return
	}
	t0 := time.Now()
	e.inner.OnCommit(now, d)
	e.done(mCommit, t0)
}

func (e *timedEngine) OnSWPrefetch(now uint64, d *ir.DynInst, doneAt uint64) {
	if !e.sample(mSWPrefetch) {
		e.inner.OnSWPrefetch(now, d, doneAt)
		return
	}
	t0 := time.Now()
	e.inner.OnSWPrefetch(now, d, doneAt)
	e.done(mSWPrefetch, t0)
}

func (e *timedEngine) Tick(now uint64, freePorts int) int {
	if !e.sample(mTick) {
		return e.inner.Tick(now, freePorts)
	}
	t0 := time.Now()
	n := e.inner.Tick(now, freePorts)
	e.done(mTick, t0)
	return n
}

func (e *timedEngine) NextEventAt(now uint64) uint64 {
	if !e.sample(mNextEventAt) {
		return e.inner.NextEventAt(now)
	}
	t0 := time.Now()
	t := e.inner.NextEventAt(now)
	e.done(mNextEventAt, t0)
	return t
}

// estimate returns the engine's estimated untraced host time in ns and
// its call count: per method, the sampled mean less the cost of the
// clock reads around it, scaled to all calls.
func (e *timedEngine) estimate(clockNs float64) (ns float64, calls uint64) {
	for m := 0; m < nMethods; m++ {
		calls += e.calls[m]
		if e.sampled[m] == 0 {
			continue
		}
		mean := float64(e.sampledNs[m])/float64(e.sampled[m]) - clockNs
		ns += math.Max(mean, 0) * float64(e.calls[m])
	}
	return ns, calls
}

// clockCost measures what an empty timed region reads, the cost
// timedEngine subtracts from every sampled call: the median over
// batches of the batch mean.
func clockCost() float64 {
	const batches, reps = 51, 2000
	means := make([]float64, batches)
	for b := range means {
		var sum time.Duration
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		means[b] = float64(sum) / reps
	}
	sort.Float64s(means)
	return means[batches/2]
}

// kernelOf resolves the kernel a spec runs, as harness.Run does.
func kernelOf(spec harness.Spec) (func(*ir.Asm), error) {
	if spec.Kernel != nil {
		return spec.Kernel, nil
	}
	b, ok := harness.BenchByName(spec.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	return b.Kernel(spec.Params), nil
}

// replica is one run assembled from the public constructors.
type replica struct {
	setup, total time.Duration
	cpu          cpu.Stats
	cache        cache.Stats
	engine       *timedEngine // nil when the spec attaches no engine
}

// runReplica assembles spec the way harness.Run does for the specs the
// workloads build (only Bench, Params, Engine and Kernel set) and runs
// it with the engine wrapped in timedEngine.
func runReplica(spec harness.Spec) (rep replica, err error) {
	defer recoverInto(&err)
	kernel, err := kernelOf(spec)
	if err != nil {
		return rep, err
	}
	t0 := time.Now()
	memP := cache.Defaults()
	engineName := spec.Engine
	if engineName == "" {
		engineName = prefetch.DefaultFor(spec.Params.Scheme)
	}
	attach := engineName != ""
	memP.EnablePB = attach
	alloc := heap.New(mem.NewImage())
	hier := cache.New(memP)
	pred := bpred.New(bpred.Defaults())
	var eng cpu.PrefetchEngine
	if attach {
		inner, err := prefetch.New(engineName, prefetch.Config{
			DBP:      dbp.Defaults(),
			HW:       core.DefaultHWConfig(),
			Interval: spec.Params.Interval,
		}, hier, alloc)
		if err != nil {
			return rep, err
		}
		rep.engine = newTimedEngine(inner)
		eng = rep.engine
	}
	gen := ir.NewGen(alloc, kernel)
	c := cpu.New(cpu.Defaults(), hier, pred, eng)
	rep.setup = time.Since(t0)
	rep.cpu = c.Run(gen)
	rep.total = time.Since(t0)
	rep.cache = hier.Stats()
	return rep, nil
}

// drainEmission runs the kernel's generator with no consumer.
func drainEmission(kernel func(*ir.Asm)) (d time.Duration, st ir.Stats, err error) {
	defer recoverInto(&err)
	alloc := heap.New(mem.NewImage())
	t0 := time.Now()
	g := ir.NewGen(alloc, kernel)
	for {
		ins, _ := g.NextBatch()
		if ins == nil {
			break
		}
	}
	return time.Since(t0), g.Stats(), nil
}

// replayCache feeds the kernel's load and store addresses into a fresh
// Table 2 hierarchy and times only the hierarchy calls.  The synthetic
// clock advances one cycle per instruction and waits for every load,
// as an in-order core would, which keeps the miss queues bounded.
func replayCache(kernel func(*ir.Asm)) (d time.Duration, accesses uint64, err error) {
	defer recoverInto(&err)
	alloc := heap.New(mem.NewImage())
	hier := cache.New(cache.Defaults())
	g := ir.NewGen(alloc, kernel)
	var now uint64
	for {
		ins, _ := g.NextBatch()
		if ins == nil {
			break
		}
		t0 := time.Now()
		for i := range ins {
			now++
			switch ins[i].Class {
			case ir.Load:
				if r := hier.AccessData(now, ins[i].Addr, cache.KLoad); r.Done > now {
					now = r.Done
				}
				accesses++
			case ir.Store:
				hier.AccessData(now, ins[i].Addr, cache.KStore)
				accesses++
			}
		}
		d += time.Since(t0)
	}
	return d, accesses, nil
}

// runPerfectCore runs the kernel on the core under perfect data memory
// with no engine: emission plus the core, with the hierarchy reduced to
// single-cycle hits.
func runPerfectCore(kernel func(*ir.Asm)) (d time.Duration, st cpu.Stats, err error) {
	defer recoverInto(&err)
	p := cache.Defaults()
	p.PerfectData = true
	alloc := heap.New(mem.NewImage())
	t0 := time.Now()
	c := cpu.New(cpu.Defaults(), cache.New(p), bpred.New(bpred.Defaults()), nil)
	st = c.Run(ir.NewGen(alloc, kernel))
	return time.Since(t0), st, nil
}

func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// layerSums accumulates one traced pass.
type layerSums struct {
	run, traced                     float64 // ns: untraced harness.Run, replica
	emit, perfect, cacheNs, engine  float64 // ns
	cacheEst                        float64 // ns: replay cost scaled to the real run
	replayAcc                       uint64
	insts, ovhd, cycles, perfCycles uint64
	calls                           uint64
	setupNs                         float64
	l1dAcc, l1dMiss, l2Acc, l2Miss  uint64
	demandWait                      uint64
	prefetch                        stats.PrefetchStats
	validateNs, snapBytes           float64
	footprint                       int
	specs                           int
}

// tracePass runs one traced pass over specs and returns its per-layer
// metrics plus the untraced outcomes, checked and with every self-check
// failure marked.
func tracePass(specs []harness.Spec) ([]metric, []outcome) {
	clock := clockCost()
	var s layerSums
	var outs []outcome
	selfFail := map[string]string{}
	for _, spec := range specs {
		it := harness.RunBatch([]harness.Spec{spec}, 1)[0]
		o := fromResult(spec, it.Result, it.Err, it.Elapsed)
		outs = append(outs, o)
		if it.Err != nil {
			continue
		}
		if f := traceSpec(spec, it.Result, o, clock, &s); f != "" {
			selfFail[o.key] = f
		}
	}

	// Worker utilisation: the specs as one batch on GOMAXPROCS workers,
	// as jppreport runs a sweep by default, through RunBatch so each
	// run's elapsed time is visible.  Every run must simulate what it
	// simulated alone.
	workers := min(runtime.GOMAXPROCS(0), len(specs))
	t0 := time.Now()
	items := harness.RunBatch(specs, workers)
	wall := time.Since(t0)
	var busy time.Duration
	for i, it := range items {
		busy += it.Elapsed
		o := outs[i]
		switch {
		case it.Err != nil:
			selfFail[o.key] = "worker-utilisation pass: " + it.Err.Error()
		case o.err == nil && (it.Result.CPU.Cycles != o.cycles || it.Result.CPU.Insts != o.insts):
			selfFail[o.key] = fmt.Sprintf("on %d workers ran %d insts in %d cycles, alone %d in %d",
				workers, it.Result.CPU.Insts, it.Result.CPU.Cycles, o.insts, o.cycles)
		}
	}
	util := float64(busy) / (float64(wall) * float64(workers))

	check(outs)
	for i := range outs {
		if f, ok := selfFail[outs[i].key]; ok && outs[i].fail == "" {
			outs[i].fail = "trace self-check: " + f
		}
	}
	return append(s.metrics(util), metric{"prefetch.speedup_pct", speedupPct(outs), "%"}), outs
}

// traceSpec runs the layer-isolating runs of one spec, adds them to s
// and returns a non-empty reason when a self-check fails.  The replica must simulate exactly what
// harness.Run simulated, or the trace would measure a different
// program.
func traceSpec(spec harness.Spec, ref harness.Result, o outcome, clock float64, s *layerSums) string {
	kernel, err := kernelOf(spec)
	if err != nil {
		return err.Error()
	}
	rep, err := runReplica(spec)
	if err != nil {
		return "replica: " + err.Error()
	}
	if rep.cpu.Cycles != ref.CPU.Cycles || rep.cpu.Insts != ref.CPU.Insts {
		return fmt.Sprintf("replica ran %d insts in %d cycles, harness.Run %d in %d",
			rep.cpu.Insts, rep.cpu.Cycles, ref.CPU.Insts, ref.CPU.Cycles)
	}
	if rep.cache != ref.Cache {
		return fmt.Sprintf("replica cache stats %+v, harness.Run %+v", rep.cache, ref.Cache)
	}
	emit, est, err := drainEmission(kernel)
	if err != nil {
		return "emission drain: " + err.Error()
	}
	if est.Total() != ref.Insts.Total() {
		return fmt.Sprintf("emission drain emitted %d insts, harness.Run %d", est.Total(), ref.Insts.Total())
	}
	cacheD, acc, err := replayCache(kernel)
	if err != nil {
		return "cache replay: " + err.Error()
	}
	perfD, perf, err := runPerfectCore(kernel)
	if err != nil {
		return "perfect-memory core: " + err.Error()
	}
	if perf.Insts != ref.CPU.Insts {
		return fmt.Sprintf("perfect-memory core ran %d insts, harness.Run %d", perf.Insts, ref.CPU.Insts)
	}

	s.specs++
	s.run += float64(o.elapsed)
	s.traced += float64(rep.total)
	s.setupNs += float64(rep.setup)
	s.emit += float64(emit)
	s.perfect += float64(perfD)
	s.cacheNs += float64(cacheD)
	s.replayAcc += acc
	if acc > 0 {
		// Demand accesses and software prefetches reach the hierarchy
		// from the core; the engine's own accesses are inside its time.
		fromCore := ref.Cache.L1DAccesses + ref.Stats.Prefetch.SWIssued
		s.cacheEst += float64(cacheD) / float64(acc) * float64(fromCore)
	}
	if rep.engine != nil {
		ns, calls := rep.engine.estimate(clock)
		s.engine += ns
		s.calls += calls
	}
	s.insts += ref.CPU.Insts
	s.ovhd += ref.Insts.OvhdInsts
	s.cycles += ref.CPU.Cycles
	s.perfCycles += perf.Cycles
	s.l1dAcc += ref.Cache.L1DAccesses
	s.l1dMiss += ref.Cache.L1DMisses
	s.l2Acc += ref.Cache.L2Accesses
	s.l2Miss += ref.Cache.L2Misses
	s.demandWait += ref.Cache.DemandWaitSum
	p := ref.Stats.Prefetch.PrefetchStats
	s.prefetch.Issued += p.Issued
	s.prefetch.UsefulTimely += p.UsefulTimely
	s.prefetch.UsefulLate += p.UsefulLate
	s.prefetch.Useless += p.Useless
	s.prefetch.EvictedUnused += p.EvictedUnused
	s.prefetch.UncoveredMisses += p.UncoveredMisses
	s.validateNs += validateNs(ref.Stats)
	if b, err := json.Marshal(ref.Stats); err == nil {
		s.snapBytes += float64(len(b))
	}
	if o.footprint > s.footprint {
		s.footprint = o.footprint
	}
	return ""
}

// validateNs times Snapshot.Validate, which takes well under a
// microsecond, as the mean of many calls.
func validateNs(snap stats.Snapshot) float64 {
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		_ = snap.Validate() // the checked pass reports its error
	}
	return float64(time.Since(t0)) / reps
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the pass's sums into the per-layer metrics.
func (s layerSums) metrics(util float64) []metric {
	insts := float64(s.insts)
	core := s.perfect - s.emit
	pm := s.prefetch.Metrics()
	return []metric{
		{"ir.emit_ns_per_inst", ratio(s.emit, insts), "ns"},
		{"ir.insts", insts, "count"},
		{"ir.overhead_frac", ratio(float64(s.ovhd), insts), "frac"},
		{"ir.time_frac", ratio(s.emit, s.run), "frac"},
		{"cpu.ns_per_inst", ratio(core, insts), "ns"},
		{"cpu.ns_per_cycle", ratio(core, float64(s.perfCycles)), "ns"},
		{"cpu.ipc", ratio(insts, float64(s.cycles)), "inst/cycle"},
		{"cpu.time_frac", ratio(core, s.run), "frac"},
		{"cache.ns_per_access", ratio(s.cacheNs, float64(s.replayAcc)), "ns"},
		{"cache.accesses", float64(s.l1dAcc), "count"},
		{"cache.l1d_miss_rate", ratio(float64(s.l1dMiss), float64(s.l1dAcc)), "frac"},
		{"cache.l2_miss_rate", ratio(float64(s.l2Miss), float64(s.l2Acc)), "frac"},
		{"cache.demand_wait_per_access", ratio(float64(s.demandWait), float64(s.l1dAcc)), "cycles"},
		{"cache.time_frac", ratio(s.cacheEst, s.run), "frac"},
		{"engine.ns_per_call", ratio(s.engine, float64(s.calls)), "ns"},
		{"engine.calls_per_inst", ratio(float64(s.calls), insts), "calls/inst"},
		{"engine.time_frac", ratio(s.engine, s.run), "frac"},
		{"prefetch.issued_per_kinst", ratio(float64(s.prefetch.Issued)*1000, insts), "1/kinst"},
		{"prefetch.accuracy", pm.Accuracy, "frac"},
		{"prefetch.coverage", pm.Coverage, "frac"},
		{"prefetch.timeliness", pm.Timeliness, "frac"},
		{"harness.setup_us", ratio(s.setupNs, float64(s.specs)) / 1e3, "us"},
		{"harness.worker_util", util, "frac"},
		{"stats.validate_us", ratio(s.validateNs, float64(s.specs)) / 1e3, "us"},
		{"stats.snapshot_bytes", ratio(s.snapBytes, float64(s.specs)), "bytes"},
		{"mem.footprint_mb", float64(s.footprint) / (1 << 20), "MB"},
		{"trace.overhead_frac", ratio(s.traced-s.run, s.run), "frac"},
		{"trace.unattributed_frac", ratio(s.run-s.emit-core-s.cacheEst-s.engine, s.run), "frac"},
	}
}
