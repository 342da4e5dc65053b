package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
)

// TestBlockReplayEquivalence pins the front end's block-granular
// dispatch end to end: for every kernel under every scheme, with cycle
// skipping both on and off, the timed core — which replays the
// generator's batches as spans (NextBatch plus dispatch metadata) —
// commits exactly the instruction stream an untimed per-instruction
// drain (Gen.Next) of the same kernel emits.  Commit counts per class,
// the generator's accounting and the final heap payload must all match:
// a span left half-dispatched, or an instruction dispatched twice, shows
// up here even when the cycle count happens to look plausible.
func TestBlockReplayEquivalence(t *testing.T) {
	t.Parallel()
	for _, b := range AllBenches() {
		for _, scheme := range core.Schemes() {
			for _, noskip := range []bool{false, true} {
				b, scheme, noskip := b, scheme, noskip
				name := b.Name + "/" + scheme.String()
				if noskip {
					name += "/noskip"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					params := olden.Params{Scheme: scheme, Size: olden.SizeTest}
					cfg := cpu.Defaults()
					cfg.DisableCycleSkip = noskip
					res, err := Run(Spec{Bench: b.Name, Params: params, CPU: &cfg})
					if err != nil {
						t.Fatal(err)
					}
					if res.CPU.Truncated {
						t.Fatal("timed run truncated")
					}

					alloc := heap.New(mem.NewImage())
					gen := ir.NewGen(alloc, b.Kernel(params))
					var byClass [ir.NumClasses]uint64
					var total uint64
					for d := gen.Next(); d != nil; d = gen.Next() {
						byClass[d.Class]++
						total++
					}

					if res.CPU.Insts != total {
						t.Errorf("committed %d instructions, per-instruction drain emitted %d",
							res.CPU.Insts, total)
					}
					if res.CPU.CommitByCl != byClass {
						t.Errorf("commits per class %v, per-instruction drain %v",
							res.CPU.CommitByCl, byClass)
					}
					if got := gen.Stats(); res.Insts != got {
						t.Errorf("emission stats differ\n  timed: %+v\n  drain: %+v", res.Insts, got)
					}
					if got, want := res.Heap.PayloadChecksum(), alloc.PayloadChecksum(); got != want {
						t.Errorf("heap payload checksum %#x, per-instruction drain %#x", got, want)
					}
				})
			}
		}
	}
}
