// Command jppsim runs one benchmark under one prefetching scheme on the
// simulated Table 2 machine and prints the statistics block.
//
// Usage:
//
//	jppsim -bench health -scheme coop [-idiom chain] [-size full]
//	       [-engine stride] [-interval 8] [-memlat 70] [-split] [-stats-json]
//
// -engine attaches a specific prefetch engine from the registry
// (internal/prefetch) instead of the scheme's default, so any workload
// can run under any prefetcher — the basis of the jppreport "shootout"
// experiment.  -engine list prints the registered names.
//
// -validate ignores -bench/-scheme and instead runs the differential
// validation matrix: every benchmark (or the -vbench list) and
// -vprograms random micro-IR programs, each simulated under every
// prefetch scheme with cycle skipping on and off, checked against an
// in-order functional oracle.  It exits nonzero on any divergence.
// -size applies (defaulting to small in this mode).
//
// -stats-json replaces the text block with the versioned stats snapshot
// (cycle attribution, prefetch coverage/accuracy/timeliness, cache
// counters); pipe it to `jppreport -stats` for the attribution table.
//
// -sample switches to sampled simulation (detailed warmup + measured
// intervals, functional fast-forward in between): architectural results
// are exact, cycle counts are extrapolated estimates with error bars.
// -sample-period/-sample-detail/-sample-warmup tune the unit geometry.
//
// -cpuprofile/-memprofile write pprof profiles of the simulator itself
// (not the simulated machine); the two flags compose — with both set,
// one run yields both profiles.  See EXPERIMENTS.md "Profiling the
// simulator" for the workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro"
	"repro/internal/cpu"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jppsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("jppsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		bench     = fs.String("bench", "health", "benchmark name (see -list)")
		scheme    = fs.String("scheme", "none", "none|dbp|sw|coop|hw")
		idiom     = fs.String("idiom", "", "queue|full|chain|root (default: representative)")
		engine    = fs.String("engine", "", "prefetch engine override, or \"list\" (default: scheme's engine)")
		size      = fs.String("size", "full", "test|small|full|large")
		interval  = fs.Int("interval", 0, "jump-pointer interval (0 = 8)")
		memlat    = fs.Int("memlat", 0, "main memory latency override")
		split     = fs.Bool("split", false, "also run the compute-time decomposition")
		statsJSON = fs.Bool("stats-json", false, "emit the versioned stats snapshot as JSON")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		doValid   = fs.Bool("validate", false, "run the differential validation matrix and exit")
		vprograms = fs.Int("vprograms", 25, "validation: random program count (negative = none)")
		vseed     = fs.Uint64("vseed", 1, "validation: first random program seed")
		vbench    = fs.String("vbench", "", "validation: comma-separated benchmark list (default all)")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile of the simulator to this file")
		sample    = fs.Bool("sample", false, "use sampled simulation (approximate cycles, exact architectural results)")
		samPeriod = fs.Uint64("sample-period", 0, "sampling: unit length in instructions (0 = default)")
		samDetail = fs.Uint64("sample-detail", 0, "sampling: measured detailed span per unit (0 = default)")
		samWarmup = fs.Uint64("sample-warmup", 0, "sampling: detailed warmup span per unit (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		defer f.Close()
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			return cerr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Written on the way out so the profile sees the run's live
		// heap; a failure here must surface in the exit code, so the
		// deferred write feeds the named return (without masking an
		// earlier error).
		defer func() {
			werr := writeHeapProfile(*memProf)
			if err == nil {
				err = werr
			}
		}()
	}

	if *list {
		for _, b := range repro.Benchmarks() {
			idioms := make([]string, len(b.Idioms))
			for i, id := range b.Idioms {
				idioms[i] = id.String()
			}
			fmt.Fprintf(out, "%-10s %-55s idioms=%s passes=%d\n",
				b.Name, b.Description, strings.Join(idioms, ","), b.Traversals)
		}
		return nil
	}

	if *doValid {
		// -size defaults to small here: "full" is the single-run default,
		// far larger than a whole matrix needs.
		sizeSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "size" {
				sizeSet = true
			}
		})
		vsize := repro.SizeSmall
		if sizeSet {
			var err error
			if vsize, err = parseSize(*size); err != nil {
				return err
			}
		}
		var benches []string
		if *vbench != "" {
			benches = strings.Split(*vbench, ",")
		}
		fails := repro.Validate(out, repro.ValidationOptions{
			Benches:  benches,
			Size:     vsize,
			Programs: *vprograms,
			Seed:     *vseed,
		})
		if len(fails) > 0 {
			return fmt.Errorf("validation found %d divergence(s)", len(fails))
		}
		return nil
	}

	if *engine == "list" {
		for _, n := range repro.Engines() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	if *interval < 0 {
		return fmt.Errorf("-interval %d: must be non-negative (0 = default)", *interval)
	}
	if *memlat < 0 {
		return fmt.Errorf("-memlat %d: must be non-negative (0 = default)", *memlat)
	}
	cfg := repro.Config{
		Bench:      *bench,
		Engine:     *engine,
		Interval:   *interval,
		MemLatency: *memlat,
	}
	if *sample || *samPeriod != 0 || *samDetail != 0 || *samWarmup != 0 {
		cfg.Sampling = &cpu.SamplingConfig{
			Period: *samPeriod,
			Detail: *samDetail,
			Warmup: *samWarmup,
		}
	}
	if cfg.Scheme, err = parseScheme(*scheme); err != nil {
		return err
	}
	if cfg.Idiom, err = parseIdiom(*idiom); err != nil {
		return err
	}
	if cfg.Size, err = parseSize(*size); err != nil {
		return err
	}

	if *split {
		d, err := repro.Split(cfg)
		if err != nil {
			return err
		}
		if *statsJSON {
			return printStatsJSON(out, d.Full)
		}
		printResult(out, d.Full)
		memShare := "n/a"
		if d.Total > 0 {
			memShare = fmt.Sprintf("%.0f%%", 100*float64(d.Memory())/float64(d.Total))
		}
		fmt.Fprintf(out, "\ndecomposition: total=%d compute=%d memory=%d (%s memory stall)\n",
			d.Total, d.Compute, d.Memory(), memShare)
		return nil
	}
	res, err := repro.Simulate(cfg)
	if err != nil {
		return err
	}
	if *statsJSON {
		return printStatsJSON(out, res)
	}
	printResult(out, res)
	return nil
}

// writeHeapProfile snapshots the live heap into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // report live allocations, not GC garbage
	return pprof.WriteHeapProfile(f)
}

// printStatsJSON emits the run's versioned snapshot, validating it
// first so a broken invariant can never slip out as plausible JSON.
func printStatsJSON(out io.Writer, r repro.Result) error {
	if err := r.Stats.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.Stats, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func printResult(out io.Writer, r repro.Result) {
	fmt.Fprintf(out, "bench=%s scheme=%v size=%v\n", r.Spec.Bench, r.Spec.Params.Scheme, r.Spec.Params.Size)
	if r.EngineName != "" {
		fmt.Fprintf(out, "engine            %s\n", r.EngineName)
	}
	if sr := r.Stats.Sampling; sr != nil {
		fmt.Fprintf(out, "sampled           %d intervals, %d measured + %d fast-forwarded insts, cycles in [%d, %d] (95%%)\n",
			sr.Intervals, sr.MeasuredInsts, sr.FFInsts, sr.CyclesLo, sr.CyclesHi)
	}
	fmt.Fprintf(out, "cycles            %d\n", r.CPU.Cycles)
	fmt.Fprintf(out, "instructions      %d (orig %d + prefetch overhead %d)\n",
		r.CPU.Insts, r.Insts.OrigInsts, r.Insts.OvhdInsts)
	fmt.Fprintf(out, "IPC               %.3f\n", r.CPU.IPC())
	missRate := "n/a"
	if r.Cache.L1DAccesses > 0 {
		missRate = fmt.Sprintf("%.1f%%",
			100*float64(r.Cache.L1DMisses)/float64(r.Cache.L1DAccesses))
	}
	fmt.Fprintf(out, "L1D               %d accesses, %d misses (%s)\n",
		r.Cache.L1DAccesses, r.Cache.L1DMisses, missRate)
	fmt.Fprintf(out, "L2                %d accesses, %d misses\n", r.Cache.L2Accesses, r.Cache.L2Misses)
	fmt.Fprintf(out, "LDS load misses   %d (other %d), avg in-flight %.2f\n",
		r.CPU.LDSLoadMiss, r.CPU.OtherMiss, r.CPU.AvgMissOverlap())
	fmt.Fprintf(out, "L1<->L2 traffic   %d bytes (%.2f per orig inst)\n",
		r.Cache.L1L2Bytes, float64(r.Cache.L1L2Bytes)/float64(r.Insts.OrigInsts))
	fmt.Fprintf(out, "branches          %d cond, %d mispredicted\n",
		r.Bpred.CondBranches, r.Bpred.Mispredicts)
	b := r.Stats.CyclesByCategory
	fmt.Fprintf(out, "cycle breakdown   busy=%d fstall=%d wfull=%d ldmiss=%d bus=%d other=%d\n",
		b.Busy, b.FetchStall, b.WindowFull, b.LoadMiss, b.BusContention, b.Other)
	if p := r.Stats.Prefetch; p.Issued > 0 {
		fmt.Fprintf(out, "prefetches        %d issued: %d timely, %d late, %d useless, %d evicted (cov %.2f acc %.2f timely %.2f)\n",
			p.Issued, p.UsefulTimely, p.UsefulLate, p.Useless, p.EvictedUnused,
			p.Derived.Coverage, p.Derived.Accuracy, p.Derived.Timeliness)
	}
	if r.Engine != nil {
		fmt.Fprintf(out, "prefetch engine   issued=%d usefulPBhits=%d trained=%d prqDrops=%d\n",
			r.Engine.IssuedPrefetch, r.Cache.PBHits, r.Engine.Trained, r.Engine.PRQDrops)
	}
	if r.HW != nil {
		fmt.Fprintf(out, "hardware JPP      recurrentPCs=%d jpStores=%d jpLaunches=%d\n",
			r.HW.RecurrentPCs, r.HW.JPStores, r.HW.JPLaunches)
	}
}

func parseScheme(s string) (repro.Scheme, error) {
	switch s {
	case "none":
		return repro.SchemeNone, nil
	case "dbp":
		return repro.SchemeDBP, nil
	case "sw", "software":
		return repro.SchemeSoftware, nil
	case "coop", "cooperative":
		return repro.SchemeCooperative, nil
	case "hw", "hardware":
		return repro.SchemeHardware, nil
	}
	return 0, fmt.Errorf("unknown scheme %q", s)
}

func parseIdiom(s string) (repro.Idiom, error) {
	switch s {
	case "":
		return repro.IdiomDefault, nil
	case "queue":
		return repro.IdiomQueue, nil
	case "full":
		return repro.IdiomFull, nil
	case "chain":
		return repro.IdiomChain, nil
	case "root":
		return repro.IdiomRoot, nil
	}
	return 0, fmt.Errorf("unknown idiom %q", s)
}

func parseSize(s string) (repro.Size, error) {
	switch s {
	case "test":
		return repro.SizeTest, nil
	case "small":
		return repro.SizeSmall, nil
	case "full":
		return repro.SizeFull, nil
	case "large":
		return repro.SizeLarge, nil
	}
	return 0, fmt.Errorf("unknown size %q", s)
}
