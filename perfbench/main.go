// Command perfbench is the simulator's benchmark.  It runs one named
// workload for a fixed time, checks every simulated result, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of its output, one JSON object.  README.md in this
// directory describes the workloads and metrics; run.py builds and runs
// it from the repository root.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/olden"
)

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// launchNs is the launcher's wall clock, in Unix ns, just before it
	// started this process; 0 when unknown.
	launchNs int64
	// commit and source identify the measured tree for the provenance
	// line.
	commit, source string
	// setupReps is how many set-ups setup_s is the median of: the
	// run's own and setupReps-1 fresh processes that only set up.
	setupReps int
	// setupOnly sets up, reports setup_s alone and stops.
	setupOnly bool
	// size, when non-zero, replaces the workload's own (the tests run
	// every workload at test size).
	size olden.Size
}

// Passes per timed run: at least minPasses, so every median has
// several samples, and no new pass after maxRun, so a run on a slowed host still ends
// well inside the three minutes a run may take.
const (
	minPasses = 3
	maxRun    = 120 * time.Second
)

// setupReps is how many cold set-ups setup_s is the median of.  One
// kernels-large set-up took 7 to 31 ms within a single run on a 2-core
// VM, so the median needs many; each costs a few tens of ms.
const setupReps = 25

// report is one run's outcome.
type report struct {
	provenance        map[string]any
	correct           bool
	attempted, failed int
	metrics           []metric
	// digest is the last measured pass's sim_digest; digests holds
	// every pass's, which must agree.
	digest  string
	digests map[string]bool
	lines   []string // human-readable detail
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name (olden-full, kernels-large)")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the order of specs within each pass")
	fs.Float64Var(&c.seconds, "seconds", 32, "seconds to measure for")
	traceN := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.Int64Var(&c.launchNs, "launch-ns", 0, "launcher's Unix time in ns when it started this process")
	fs.StringVar(&c.commit, "commit", "unknown", "git commit of the measured tree")
	fs.StringVar(&c.source, "source", "unknown", "digest of the measured tree's sources")
	fs.BoolVar(&c.setupOnly, "setup-only", false, "only set up and report setup_s")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceN != 0 && *traceN != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", *traceN)
	}
	c.trace = *traceN == 1
	c.setupReps = setupReps
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive, got %g", c.seconds)
	}
	if _, err := workloadByName(c.workload); err != nil {
		return c, err
	}
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

// run executes one benchmark run.
func run(c config) (*report, error) {
	w, err := workloadByName(c.workload)
	if err != nil {
		return nil, err
	}
	if c.size != 0 {
		w.size = c.size
	}
	return measure(c, w, w.specs)
}

// measure sets up and measures workload w over the spec list build
// returns.
func measure(c config, w workload, build func() ([]harness.Spec, error)) (*report, error) {
	rep := &report{provenance: provenance(c), digests: map[string]bool{}}

	// Set-up, from process launch (or, without a launch time, from
	// here) to the first timed spec: resolve the registries, build the
	// spec list and warm every code path the workload reaches with one
	// test-size pass.
	t0 := time.Now()
	specs, err := build()
	if err != nil {
		return nil, err
	}
	warm := append([]harness.Spec(nil), specs...)
	for j := range warm {
		warm[j].Params.Size = olden.SizeTest
	}
	rep.add(warmUp(warm))
	setup := time.Since(t0).Seconds()
	if c.launchNs > 0 {
		setup = math.Max(float64(time.Now().UnixNano()-c.launchNs)/1e9, 0)
	}
	rng := rand.New(rand.NewSource(c.seed))

	switch {
	case c.setupOnly:
		rep.metrics = []metric{{"setup_s", setup, "s"}}
	case c.trace:
		metrics, outs := tracePass(shuffled(specs, rng))
		rep.add(outs)
		rep.addDigest(outs)
		rep.metrics = metrics
		rep.lines = append(rep.lines, fmt.Sprintf("%s: traced pass of %d specs", w.name, len(specs)))
	default:
		metrics, err := timedPasses(c, w, specs, rng, rep, setup)
		if err != nil {
			return nil, err
		}
		rep.metrics = metrics
	}
	if len(rep.digests) > 1 {
		rep.failed++
		rep.lines = append(rep.lines, fmt.Sprintf("FAIL sim_digest differs between passes (%d values)", len(rep.digests)))
	}
	rep.correct = rep.failed == 0
	failedFrac := ratio(float64(rep.failed), float64(rep.attempted))
	if !c.trace && !c.setupOnly {
		rep.metrics = append(rep.metrics, metric{"ok_frac", 1 - failedFrac, "frac"})
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("failed_frac %g (%d of %d specs failed)", failedFrac, rep.failed, rep.attempted),
		"sim_digest "+rep.digest)
	return rep, nil
}

// freshSetup runs this program in a new process that only sets up, as
// this run did, and returns its setup_s.
func freshSetup(c config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	args := []string{"-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-setup-only", "-launch-ns", strconv.FormatInt(time.Now().UnixNano(), 10)}
	out, err := exec.CommandContext(ctx, exe, args...).Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	s, ok := res.Metrics["setup_s"]
	if !res.Correct || !ok {
		return 0, fmt.Errorf("set-up process failed:\n%s", out)
	}
	return s.Value, nil
}

// timedPasses runs the workload's fixed number of passes for
// c.seconds and returns the end-to-end metrics other than ok_frac.
// setup is the run's own set-up time.
//
// Host time is the median pass.  On a shared host it varied less from
// run to run than the fastest pass or the sum of every spec's fastest
// time did, and the number of passes does not move it.
//
// setup_s is the median of c.setupReps cold set-ups: the run's own and
// fresh processes that only set up, so one-time costs (first heap
// growth, first touch of code and data) land in each sample.  The fresh
// set-ups run between the passes: the host's speed changes over
// seconds, and set-ups spread over the run sample it as the passes do.
func timedPasses(c config, w workload, specs []harness.Spec, rng *rand.Rand, rep *report, setup float64) ([]metric, error) {
	setups := []float64{setup}
	addSetups := func(want int) error {
		for len(setups) < want {
			s, err := freshSetup(c)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var passS, allocMB []float64
	var geo float64
	var simInsts uint64
	n := w.passes(c.seconds)
	start := time.Now()
	for len(passS) < n {
		if len(passS) >= minPasses && time.Since(start) > maxRun {
			rep.lines = append(rep.lines, fmt.Sprintf("%s: stopped after %d of %d passes at %s", w.name, len(passS), n, maxRun))
			break
		}
		p := runPass(shuffled(specs, rng))
		rep.add(p.outs)
		rep.addDigest(p.outs)
		geo = cyclesGeomean(p.outs)
		simInsts = p.simInsts
		passS = append(passS, p.wall.Seconds())
		allocMB = append(allocMB, float64(p.allocBytes)/(1<<20))
		if err := addSetups(1 + (c.setupReps-1)*len(passS)/n); err != nil {
			return nil, err
		}
	}
	if err := addSetups(c.setupReps); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("%s: %d passes of %d specs; pass wall time %s", w.name, len(passS), len(specs), summary(passS)),
		fmt.Sprintf("setup_s per fresh process %v", setups))
	passMed := median(passS)
	return []metric{
		{"sim_mips", float64(simInsts) / passMed / 1e6, "Minst/s"},
		{"pass_s", passMed, "s"},
		{"peak_rss_mb", rss, "MB"},
		{"alloc_mb", median(allocMB), "MB"},
		{"sim_cycles_geomean", geo, "cycles"},
		{"setup_s", median(setups), "s"},
	}, nil
}

// add counts a pass's outcomes and lists the first failures.
func (r *report) add(outs []outcome) {
	for _, o := range outs {
		r.attempted++
		if o.fail != "" {
			r.failed++
			if r.failed <= 10 {
				r.lines = append(r.lines, fmt.Sprintf("FAIL %s: %s", o.key, o.fail))
			}
		}
	}
}

// addDigest records a measured pass's sim_digest.
func (r *report) addDigest(outs []outcome) {
	r.digest = digest(outs)
	r.digests[r.digest] = true
}

// write prints the report: provenance and detail lines, one line per
// metric, and the JSON result as the last line.
func (r *report) write(out io.Writer) error {
	bw := bufio.NewWriter(out)
	prov, err := json.Marshal(r.provenance)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "perfbench: provenance %s\n", prov)
	for _, l := range r.lines {
		fmt.Fprintf(bw, "perfbench: %s\n", l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(bw, "perfbench: %-30s %-14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", res)
	return bw.Flush()
}

// provenance records where a result was measured: a number counts only
// against one taken on the same host.
func provenance(c config) map[string]any {
	return map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"seconds":       c.seconds,
		"trace":         c.trace,
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"commit":        c.commit,
		"source_sha256": c.source,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns the set-up's garbage to the OS and restarts
// the peak resident set (VmHWM) from the current one, so peak_rss_mb is
// the timed passes' peak.  The warm-up forces no collections, so its
// peak depends on when the collector ran.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak RSS reset: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary formats the minimum, median and maximum of v.
func summary(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return fmt.Sprintf("min %.4g median %.4g max %.4g (n=%d)", s[0], median(s), s[len(s)-1], len(s))
}
