package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/olden"
)

// BenchmarkEmit measures the emission layer in isolation: one
// sub-benchmark per registered workload drains its generator at the
// full input size under the none scheme, with no timing core attached,
// and reports host nanoseconds per emitted instruction (ns/inst).  A
// kernel whose functional model spends host time on bookkeeping that
// emits nothing stands out here as a high ns/inst.
func BenchmarkEmit(b *testing.B) {
	for _, bm := range AllBenches() {
		b.Run(bm.Name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				g := ir.NewGen(heap.New(mem.NewImage()),
					bm.Kernel(olden.Params{Scheme: core.SchemeNone, Size: olden.SizeFull}))
				for ins, _ := g.NextBatch(); ins != nil; ins, _ = g.NextBatch() {
				}
				insts += g.Stats().Total()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
