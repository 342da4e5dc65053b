package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
)

// outcome is what the benchmark keeps of one finished spec.  The
// simulator's Result holds the whole memory image and hierarchy, so a
// pass keeps only these fields and lets the rest be collected.
type outcome struct {
	key    string
	bench  string
	scheme core.Scheme
	// err is the run's own error; fail is set by check for any reason
	// the spec counts as failed, err included.
	err  error
	fail string

	snap    stats.Snapshot
	heapSum uint64
	orig    uint64
	insts   uint64 // instructions of this run
	cycles  uint64
	// footprint is the simulated memory image's size in bytes.
	footprint int
	elapsed   time.Duration
}

// pass is one timed pass over a workload's spec list.
type pass struct {
	outs []outcome
	// wall is the host time spent inside the simulator's entry points.
	wall time.Duration
	// simInsts counts every simulated instruction of the pass.
	simInsts uint64
	// allocBytes is the Go heap allocated inside those calls.
	allocBytes uint64
}

func fromResult(spec harness.Spec, r harness.Result, err error, elapsed time.Duration) outcome {
	o := outcome{key: specKey(spec), bench: spec.Bench, scheme: spec.Params.Scheme, err: err, elapsed: elapsed}
	if err != nil {
		return o
	}
	o.snap = r.Stats
	o.heapSum = r.Heap.PayloadChecksum()
	o.orig = r.Insts.OrigInsts
	o.insts = r.CPU.Insts
	o.cycles = r.CPU.Cycles
	o.footprint = r.Heap.Image().FootprintBytes()
	return o
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runPass runs specs one at a time and checks the results.
func runPass(specs []harness.Spec) pass {
	var p pass
	for _, s := range specs {
		// Each timed call starts from a collected heap, so no call pays
		// for the garbage of the one before it.
		runtime.GC()
		a0 := totalAlloc()
		t0 := time.Now()
		it := harness.RunBatch([]harness.Spec{s}, 1)[0]
		d := time.Since(t0)
		p.allocBytes += totalAlloc() - a0
		p.wall += d
		o := fromResult(s, it.Result, it.Err, d)
		p.simInsts += o.insts
		p.outs = append(p.outs, o)
	}
	check(p.outs)
	return p
}

// warmUp runs specs one at a time and checks the results, as a pass
// does but without the collections a timed pass forces before each
// call: set-up time is the program's, not the benchmark's.
func warmUp(specs []harness.Spec) []outcome {
	var outs []outcome
	for i, it := range harness.RunBatch(specs, 1) {
		outs = append(outs, fromResult(specs[i], it.Result, it.Err, it.Elapsed))
	}
	check(outs)
	return outs
}

// check marks every outcome that fails a correctness check and returns
// the number of failures.  A spec fails on a run error (including a
// recovered panic or a deadline), on a snapshot that does not Validate,
// and when its heap payload checksum or its count of original
// (non-overhead) instructions differs from the same kernel's
// scheme-none run: prefetching may add instructions and plant jump
// pointers in block padding, never change the program's own work.
func check(outs []outcome) int {
	ref := map[string]*outcome{}
	for i := range outs {
		o := &outs[i]
		switch {
		case o.err != nil:
			o.fail = o.err.Error()
		default:
			if err := o.snap.Validate(); err != nil {
				o.fail = err.Error()
			}
		}
		if o.scheme == core.SchemeNone {
			ref[o.bench] = o
		}
	}
	failed := 0
	for i := range outs {
		o := &outs[i]
		if o.fail == "" && o.scheme != core.SchemeNone {
			r := ref[o.bench]
			switch {
			case r == nil || r.fail != "":
				o.fail = "no passing scheme-none run to check against"
			case o.heapSum != r.heapSum:
				o.fail = fmt.Sprintf("heap payload checksum %#x, scheme none %#x", o.heapSum, r.heapSum)
			case o.orig != r.orig:
				o.fail = fmt.Sprintf("%d original instructions, scheme none %d", o.orig, r.orig)
			}
		}
		if o.fail != "" {
			failed++
		}
	}
	return failed
}

// digest hashes every outcome's simulated results in key order, so it
// is independent of spec order, worker count and host timing.  Two
// builds that simulate identically print the same digest.
func digest(outs []outcome) string {
	sorted := append([]outcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	h := sha256.New()
	var buf [8]byte
	for _, o := range sorted {
		h.Write([]byte(o.key))
		if o.err != nil {
			h.Write([]byte("\x00error"))
			continue
		}
		b, err := json.Marshal(o.snap)
		if err != nil {
			panic(err) // a Snapshot is plain data; Marshal cannot fail
		}
		h.Write(b)
		binary.LittleEndian.PutUint64(buf[:], o.heapSum)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cyclesGeomean is the geometric mean of the simulated cycles of the
// runs that finished.
func cyclesGeomean(outs []outcome) float64 {
	var sum float64
	n := 0
	for _, o := range outs {
		if o.err == nil && o.cycles > 0 {
			sum += math.Log(float64(o.cycles))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// speedupPct is the geometric-mean speed-up, in percent, of every
// passing prefetching run over its kernel's scheme-none run.
func speedupPct(outs []outcome) float64 {
	base := map[string]uint64{}
	for _, o := range outs {
		if o.fail == "" && o.scheme == core.SchemeNone {
			base[o.bench] = o.cycles
		}
	}
	var sum float64
	n := 0
	for _, o := range outs {
		if b := base[o.bench]; o.fail == "" && o.scheme != core.SchemeNone && b > 0 && o.cycles > 0 {
			sum += math.Log(float64(b) / float64(o.cycles))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (math.Exp(sum/float64(n)) - 1) * 100
}
