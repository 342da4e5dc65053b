package validate

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/olden"
)

// samplingTestConfig shrinks the sampling unit so the SizeSmall streams
// (roughly 100k instructions) still cover many intervals.
func samplingTestConfig() *cpu.SamplingConfig {
	return &cpu.SamplingConfig{Period: 10_000, Detail: 1_500, Warmup: 500}
}

// runDigested executes spec with a digest collector attached and
// returns the result plus the full-stream architectural digest.
func runDigested(t *testing.T, spec harness.Spec) (harness.Result, Digest) {
	t.Helper()
	col := NewCollector()
	cc := cpu.Defaults()
	if spec.CPU != nil {
		cc = *spec.CPU
	}
	cc.Tracer = col
	spec.CPU = &cc
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatalf("Run(%s/%s): %v", spec.Bench, spec.Params.Scheme, err)
	}
	full, _ := col.Digests(res.Heap.PayloadChecksum(), [NumRegs]uint32{})
	return res, full
}

// TestSampledMatchesFull is the sampled-simulation acceptance matrix:
// for every scheme, the sampled run must commit the identical
// architectural stream (bit-identical digest, same instruction count),
// produce a valid snapshot, and the per-scheme speedups over the
// baseline — the paper's reported quantity — must agree with the
// full-fidelity runs within tolerance in geomean.
func TestSampledMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix of full simulations")
	}
	const bench = "health"
	type pair struct {
		scheme        core.Scheme
		full, sampled uint64 // cycles
	}
	var pairs []pair
	for _, scheme := range core.Schemes() {
		spec := harness.Spec{
			Bench:  bench,
			Params: olden.Params{Scheme: scheme, Size: olden.SizeSmall},
		}
		fullRes, fullDig := runDigested(t, spec)

		spec.Sampling = samplingTestConfig()
		samRes, samDig := runDigested(t, spec)

		name := scheme.String()
		if samDig != fullDig {
			t.Errorf("%s: sampled digest %v != full digest %v", name, samDig, fullDig)
		}
		if samRes.CPU.Insts != fullRes.CPU.Insts {
			t.Errorf("%s: sampled committed %d instructions, full %d",
				name, samRes.CPU.Insts, fullRes.CPU.Insts)
		}
		if samRes.CPU.Sample == nil {
			t.Fatalf("%s: sampled run reported no SampleStats", name)
		}
		if samRes.CPU.Sample.Intervals < 2 {
			t.Errorf("%s: only %d measured intervals; stream too short for the test config",
				name, samRes.CPU.Sample.Intervals)
		}
		if samRes.CPU.Sample.FFInsts == 0 {
			t.Errorf("%s: sampled run fast-forwarded nothing", name)
		}
		if !samRes.Stats.Sampled || samRes.Stats.Sampling == nil {
			t.Errorf("%s: sampled snapshot not flagged: Sampled=%v Sampling=%v",
				name, samRes.Stats.Sampled, samRes.Stats.Sampling)
		}
		if err := samRes.Stats.Validate(); err != nil {
			t.Errorf("%s: sampled snapshot invalid: %v", name, err)
		}
		if fullRes.Stats.Sampled || fullRes.Stats.Sampling != nil {
			t.Errorf("%s: full-fidelity snapshot wrongly flagged sampled", name)
		}
		pairs = append(pairs, pair{scheme, fullRes.CPU.Cycles, samRes.CPU.Cycles})
	}

	// Speedup agreement: geomean over schemes of (baseline / scheme)
	// cycles, computed from full and from sampled runs, within 5%.
	base := pairs[0]
	if base.scheme != core.SchemeNone {
		t.Fatalf("expected baseline first, got %s", base.scheme)
	}
	logFull, logSam := 0.0, 0.0
	n := 0
	for _, p := range pairs[1:] {
		sf := float64(base.full) / float64(p.full)
		ss := float64(base.sampled) / float64(p.sampled)
		t.Logf("%s: speedup full %.4f sampled %.4f", p.scheme, sf, ss)
		logFull += math.Log(sf)
		logSam += math.Log(ss)
		n++
	}
	gmFull := math.Exp(logFull / float64(n))
	gmSam := math.Exp(logSam / float64(n))
	if ratio := gmSam / gmFull; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("speedup geomean disagrees: full %.4f, sampled %.4f (ratio %.4f, want within 5%%)",
			gmFull, gmSam, ratio)
	} else {
		t.Logf("speedup geomean: full %.4f sampled %.4f (ratio %.4f)", gmFull, gmSam, gmSam/gmFull)
	}
}

// TestSampledErrorBars asserts the confidence interval brackets the
// extrapolated count and (a sanity property, not a guarantee) that the
// full-fidelity cycle count lands within a loose multiple of it.
func TestSampledErrorBars(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	spec := harness.Spec{
		Bench:  "mst",
		Params: olden.Params{Scheme: core.SchemeNone, Size: olden.SizeSmall},
	}
	full, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Sampling = samplingTestConfig()
	sam, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := sam.CPU.Sample
	if s == nil {
		t.Fatal("no SampleStats")
	}
	if s.CyclesLo > sam.CPU.Cycles || s.CyclesHi < sam.CPU.Cycles {
		t.Errorf("confidence interval [%d, %d] excludes estimate %d",
			s.CyclesLo, s.CyclesHi, sam.CPU.Cycles)
	}
	// The interval quantifies interval-to-interval CPI variance, not
	// warmup bias, so allow generous slack around the full-run truth.
	lo := s.CyclesLo - s.CyclesLo/4
	hi := s.CyclesHi + s.CyclesHi/4
	if full.CPU.Cycles < lo || full.CPU.Cycles > hi {
		t.Errorf("full-run cycles %d far outside sampled interval [%d, %d] (±25%% slack)",
			full.CPU.Cycles, s.CyclesLo, s.CyclesHi)
	}
	t.Logf("full %d, sampled %d [%d, %d], CPI %.3f±%.3f, %d intervals, %d FF insts",
		full.CPU.Cycles, sam.CPU.Cycles, s.CyclesLo, s.CyclesHi,
		s.CPIMean, s.CPIStdErr, s.Intervals, s.FFInsts)
}

// TestSampledPinned pins the cycle count and the snapshot of a few
// sampled runs under samplingTestConfig.  The constants were computed
// while sampled runs still fetched one instruction at a time through a
// separate fetch stage, so they hold the block-granular front end
// (detailed intervals and the fast-forward's span cursor) to the same
// sampled results.
func TestSampledPinned(t *testing.T) {
	tests := []struct {
		bench  string
		scheme core.Scheme
		cycles uint64
		digest uint64
	}{
		{"health", core.SchemeCooperative, 198197, 0x002296704c9f1a59},
		{"mst", core.SchemeNone, 99230, 0xec578f05149d05cc},
		{"treeadd", core.SchemeSoftware, 211743, 0xdf05b4d8041411fb},
	}
	for _, tc := range tests {
		res, err := harness.Run(harness.Spec{
			Bench:    tc.bench,
			Params:   olden.Params{Scheme: tc.scheme, Size: olden.SizeSmall},
			Sampling: samplingTestConfig(),
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.bench, tc.scheme, err)
		}
		b, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(b)
		if res.CPU.Cycles != tc.cycles || h.Sum64() != tc.digest {
			t.Errorf("%s/%s: sampled cycles %d, snapshot hash %#016x; want %d, %#016x",
				tc.bench, tc.scheme, res.CPU.Cycles, h.Sum64(), tc.cycles, tc.digest)
		}
	}
}
