package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/olden"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// result is the JSON object on the last line of the output.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// printed writes rep and decodes its last line, which must hold exactly
// the four result keys.
func printed(t *testing.T, rep *report) (string, result) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v\n%s", got, out)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return out, res
}

// TestMain lets a test run this program as its own set-up process:
// freshSetup starts os.Executable, which under go test is the test
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSetupInFreshProcesses(t *testing.T) {
	t.Setenv("PERFBENCH_AS_MAIN", "1")
	rep, err := run(config{workload: "kernels-large", seed: 1, seconds: 1e-3, size: olden.SizeTest, setupReps: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, res := printed(t, rep)
	if !res.Correct || res.Metrics["setup_s"].Value <= 0 {
		t.Fatalf("run failed or no setup_s\n%s", out)
	}
	m := regexp.MustCompile(`setup_s per fresh process \[(\S+) (\S+) (\S+)\]`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no line with three set-up times\n%s", out)
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	ws := workloads()
	if len(ws) != len(bj.Workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(ws), len(bj.Workloads))
	}
	for i, w := range ws {
		if w.name != bj.Workloads[i].Name || w.why != bj.Workloads[i].Why {
			t.Errorf("workload %d: program %q (%s), BENCHMARK.json %q (%s)",
				i, w.name, w.why, bj.Workloads[i].Name, bj.Workloads[i].Why)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at test size, untraced and
// traced: every declared metric is printed with its unit, nothing
// fails, and the simulated results are the same whatever the spec order.
func TestSmokeEveryWorkload(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			digests := map[string]bool{}
			for _, c := range []config{
				{workload: w.name, seed: 1, seconds: 1e-3, size: olden.SizeTest},
				{workload: w.name, seed: 2, seconds: 1e-3, size: olden.SizeTest},
				{workload: w.name, seed: 3, seconds: 1e-3, size: olden.SizeTest, trace: true},
			} {
				rep, err := run(c)
				if err != nil {
					t.Fatal(err)
				}
				out, res := printed(t, rep)
				if !rep.correct || res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("seed %d trace %v: run failed\n%s", c.seed, c.trace, out)
				}
				if !strings.Contains(out, "perfbench: failed_frac 0 ") {
					t.Errorf("no zero failed_frac line\n%s", out)
				}
				want := bj.EndToEnd
				if c.trace {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics printed, %d declared", c.trace, len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), declared unit %s", d.Name, m, ok, d.Unit)
					}
					line := regexp.MustCompile(`(?m)^perfbench: ` + regexp.QuoteMeta(d.Name) + ` +\S+ +` + regexp.QuoteMeta(d.Unit) + `$`)
					if !line.MatchString(out) {
						t.Errorf("no line for %s in %s", d.Name, d.Unit)
					}
				}
				digests[rep.digest] = true
			}
			if len(digests) != 1 {
				t.Errorf("sim_digest differs between runs: %v", digests)
			}
		})
	}
}

// TestDigestIndependentOfWorkers checks that sim_digest does not
// depend on how many runs share the host: every workload's specs, run
// alone and as one batch on two workers, simulate the same.
func TestDigestIndependentOfWorkers(t *testing.T) {
	for _, w := range workloads() {
		w.size = olden.SizeTest
		specs, err := w.specs()
		if err != nil {
			t.Fatal(err)
		}
		var digests []string
		for _, workers := range []int{1, 2} {
			var outs []outcome
			for i, it := range harness.RunBatch(specs, workers) {
				outs = append(outs, fromResult(specs[i], it.Result, it.Err, it.Elapsed))
			}
			if n := check(outs); n != 0 {
				t.Fatalf("%s on %d workers: %d specs failed", w.name, workers, n)
			}
			digests = append(digests, digest(outs))
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: sim_digest on 1 worker %s, on 2 %s", w.name, digests[0], digests[1])
		}
	}
}

// schemeDependentKernel writes the scheme into the heap payload: a
// prefetching scheme that changed the program's results.
func schemeDependentKernel(s core.Scheme) func(*ir.Asm) {
	return func(a *ir.Asm) {
		p := a.Malloc(16)
		a.Store(ir.FirstUserSite, p, 0, ir.Imm(uint32(s)))
		a.Load(ir.FirstUserSite+1, p, 0, 0)
	}
}

func TestSchemeDependentPayloadFails(t *testing.T) {
	w := workload{name: "scheme-dependent", size: olden.SizeTest, passS: 1}
	build := func() ([]harness.Spec, error) {
		var specs []harness.Spec
		for _, s := range core.Schemes() {
			specs = append(specs, harness.Spec{
				Bench:  "scheme-dependent",
				Params: olden.Params{Scheme: s, Size: olden.SizeTest},
				Kernel: schemeDependentKernel(s),
			})
		}
		return specs, nil
	}
	for _, traced := range []bool{false, true} {
		rep, err := measure(config{workload: w.name, seed: 1, seconds: 1e-3, trace: traced}, w, build)
		if err != nil {
			t.Fatal(err)
		}
		out, res := printed(t, rep)
		// Every pass, warm-up included, fails each non-none scheme.
		nonNone := len(core.Schemes()) - 1
		if rep.correct || res.Correct || res.Failed < nonNone || res.Failed%nonNone != 0 {
			t.Fatalf("trace %v: want a multiple of %d failures\n%s", traced, nonNone, out)
		}
		if !strings.Contains(out, "heap payload checksum") || strings.Contains(out, "perfbench: failed_frac 0 ") {
			t.Errorf("trace %v: failure not reported in failed_frac\n%s", traced, out)
		}
		if m, ok := res.Metrics["ok_frac"]; !traced && (!ok || m.Value >= 1) {
			t.Errorf("ok_frac %+v with failures", m)
		}
	}
}
