package kernels_test

import (
	"encoding/json"
	"flag"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/olden"
	"repro/internal/prefetch"
	"repro/internal/stats"
	"repro/internal/validate"
)

// The kernel conformance suite: every kernel registered in this package
// is pushed through the full correctness matrix the Olden suite
// already satisfies — all 5 schemes x every prefetch engine x cycle
// skipping on/off — asserting snapshot byte-identity for the
// cycle-skip knob, stats.Validate invariants on every snapshot, and
// validate.Digest architectural agreement against the in-order oracle.  Goldens, equivalence and oracle coverage therefore
// come for free for every kernel added from now on: registering it is
// enough to put it under the matrix.

// -conformance-size selects the matrix input size, so CI can run the
// suite at "small" while the default `go test` stays fast.
var conformanceSize = flag.String("conformance-size", "test",
	"kernel conformance matrix input size (test|small)")

func matrixSize(t *testing.T) olden.Size {
	t.Helper()
	switch *conformanceSize {
	case "test":
		return olden.SizeTest
	case "small":
		return olden.SizeSmall
	}
	t.Fatalf("unknown -conformance-size %q", *conformanceSize)
	return olden.SizeTest
}

// TestKernelOracleDigest runs each kernel through the differential
// driver: every scheme, with cycle skipping toggled, must commit a
// stream whose architectural digest matches the in-order oracle's, with the heap checksum and non-overhead instruction count
// invariant across schemes, plus one leg per competitor engine.
func TestKernelOracleDigest(t *testing.T) {
	size := matrixSize(t)
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, f := range validate.CheckKernel(name, size, validate.Config{}) {
				t.Errorf("%s", f)
			}
		})
	}
}

// TestKernelSnapshotEquivalence asserts that cycle skipping is
// invisible in the full statistics snapshot for every kernel x scheme,
// and that every snapshot passes stats.Validate.
func TestKernelSnapshotEquivalence(t *testing.T) {
	size := matrixSize(t)
	for _, b := range kernels.All() {
		for _, scheme := range core.Schemes() {
			b, scheme := b, scheme
			t.Run(b.Name+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				base := runSnap(t, b.Name, scheme, "", size, false)
				noskip := runSnap(t, b.Name, scheme, "", size, true)
				if string(marshal(t, base)) != string(marshal(t, noskip)) {
					t.Errorf("snapshot diverges with cycle skipping disabled")
				}
			})
		}
	}
}

// TestKernelEngineMatrix runs every kernel under every registered
// prefetch engine (scheme none, so the engine is the only prefetcher)
// with cycle skipping on and off: snapshots must agree byte-for-byte
// and validate.
func TestKernelEngineMatrix(t *testing.T) {
	size := matrixSize(t)
	for _, b := range kernels.All() {
		for _, engine := range prefetch.Names() {
			b, engine := b, engine
			t.Run(b.Name+"/"+engine, func(t *testing.T) {
				t.Parallel()
				base := runSnap(t, b.Name, core.SchemeNone, engine, size, false)
				noskip := runSnap(t, b.Name, core.SchemeNone, engine, size, true)
				if string(marshal(t, base)) != string(marshal(t, noskip)) {
					t.Errorf("snapshot diverges with cycle skipping disabled")
				}
			})
		}
	}
}

// runSnap runs one spec and returns its validated snapshot.
func runSnap(t *testing.T, bench string, scheme core.Scheme, engine string,
	size olden.Size, noSkip bool) stats.Snapshot {
	t.Helper()
	cfg := cpu.Defaults()
	cfg.DisableCycleSkip = noSkip
	res, err := harness.Run(harness.Spec{
		Bench:  bench,
		Params: olden.Params{Scheme: scheme, Size: size},
		Engine: engine,
		CPU:    &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Stats.Validate(); err != nil {
		t.Fatalf("stats invariant violated: %v", err)
	}
	return res.Stats
}

func marshal(t *testing.T, s stats.Snapshot) []byte {
	t.Helper()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
