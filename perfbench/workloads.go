package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/olden"
)

// specTimeout bounds one simulation.  The largest spec of any workload
// runs in about a second on a 2-core host, so a spec that reaches this
// has wedged and counts as failed.
const specTimeout = 60 * time.Second

// workload is one named spec list.  A pass runs its specs one at a
// time.
type workload struct {
	name string
	why  string
	// size is the input size every spec of the workload uses.
	size olden.Size
	// benches and schemes span the spec list (benches × schemes).
	benches []string
	schemes []core.Scheme
	// passS is the host time of one pass on a 2-core Intel Xeon VM, on
	// the slow side of what that host gives.  It fixes how many passes
	// a run of given seconds makes.
	passS float64
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		{
			name:    "olden-full",
			why:     "the paper's Figure 5 configuration at paper scale: engine-heavy, five schemes per kernel",
			size:    olden.SizeFull,
			benches: []string{"health", "mst", "perimeter", "treeadd", "em3d"},
			schemes: core.Schemes(),
			passS:   6,
		},
		{
			name:    "kernels-large",
			why:     "working sets far beyond the L2 and no engine attached: the core, cache and emission dominate",
			size:    olden.SizeLarge,
			benches: kernels.Names(),
			schemes: []core.Scheme{core.SchemeNone},
			passS:   5.5,
		},
	}
}

// workloadByName resolves a workload name.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// passes is how many timed passes a run of the given seconds makes:
// as many nominal passes as fit, and at least minPasses.  It does not
// depend on how fast the measured tree runs.
func (w workload) passes(seconds float64) int {
	return max(minPasses, int(seconds/w.passS))
}

// specs builds the workload's spec list in canonical order, checking
// every benchmark name against the registry.
func (w workload) specs() ([]harness.Spec, error) {
	var out []harness.Spec
	for _, b := range w.benches {
		if _, ok := harness.BenchByName(b); !ok {
			return nil, fmt.Errorf("workload %s: unknown benchmark %q", w.name, b)
		}
		for _, s := range w.schemes {
			out = append(out, harness.Spec{
				Bench:   b,
				Params:  olden.Params{Scheme: s, Size: w.size},
				Timeout: specTimeout,
			})
		}
	}
	return out, nil
}

// shuffled returns a copy of specs in an order drawn from rng.  The
// order changes which runs share warm host caches and heap state, not
// any simulated result.
func shuffled(specs []harness.Spec, rng *rand.Rand) []harness.Spec {
	out := append([]harness.Spec(nil), specs...)
	rng.Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

// specKey names a spec uniquely within a workload.
func specKey(s harness.Spec) string {
	return s.Bench + "/" + s.Params.Scheme.String()
}
