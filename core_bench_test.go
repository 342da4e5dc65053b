package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/olden"
)

// BenchmarkCore measures raw simulator throughput, one sub-benchmark
// per Olden kernel (plus the §6 extensions), under the cooperative
// scheme — the configuration that exercises every engine path.  Each
// sub-benchmark reports:
//
//	sim_mips     simulated (committed) instructions per host second, /1e6
//	simcycles/s  simulated cycles per host second
//
// The geometric mean of sim_mips across kernels is the simulator's
// headline throughput number (see README "Simulator performance"); the
// CI smoke step asserts it stays present and positive in
// BENCH_jpp.json.
func BenchmarkCore(b *testing.B) {
	for _, bm := range harness.AllBenches() {
		b.Run(bm.Name, func(b *testing.B) {
			var insts, cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Spec{
					Bench:  bm.Name,
					Params: olden.Params{Scheme: core.SchemeCooperative, Size: benchSize},
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.CPU.Insts
				cycles += res.CPU.Cycles
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(insts)/sec/1e6, "sim_mips")
			b.ReportMetric(float64(cycles)/sec, "simcycles/s")
		})
	}
}
