package ir

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/mem"
)

// drain runs a kernel and collects its dynamic instructions.
func drain(t *testing.T, kernel func(*Asm)) ([]DynInst, Stats) {
	t.Helper()
	alloc := heap.New(mem.NewImage())
	g := NewGen(alloc, kernel)
	var out []DynInst
	for d := g.Next(); d != nil; d = g.Next() {
		out = append(out, *d)
	}
	return out, g.Stats()
}

func TestSequenceAndPC(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		a.Alu(100, 1, Imm(1), Val{})
		a.Alu(101, 2, Imm(2), Val{})
		a.Nop(102)
	})
	if len(insts) != 3 {
		t.Fatalf("got %d instructions", len(insts))
	}
	for i, d := range insts {
		if d.Seq != uint64(i+1) {
			t.Fatalf("inst %d: seq %d", i, d.Seq)
		}
		if d.PC != SitePC(100+i) {
			t.Fatalf("inst %d: pc %#x, want %#x", i, d.PC, SitePC(100+i))
		}
	}
}

func TestDependencesThreadThroughVals(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		x := a.Alu(100, 5, Imm(5), Val{})
		y := a.Alu(101, 7, x, Val{})
		a.Alu(102, 12, x, y)
	})
	if insts[1].Src1 != insts[0].Seq {
		t.Fatal("second instruction does not depend on the first")
	}
	if insts[2].Src1 != insts[0].Seq || insts[2].Src2 != insts[1].Seq {
		t.Fatal("third instruction's sources wrong")
	}
}

func TestLoadStoreExecuteFunctionally(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		p := a.Malloc(12)
		a.Store(100, p, 4, Imm(0xBEEF))
		v := a.Load(101, p, 4, FLDS)
		if v.U32() != 0xBEEF {
			t.Errorf("loaded %#x, want 0xBEEF", v.U32())
		}
		a.Alu(102, v.U32(), v, Val{})
	})
	// Find the load and check its recorded metadata.
	var ld *DynInst
	for i := range insts {
		if insts[i].Class == Load && insts[i].Flags&FLDS != 0 {
			ld = &insts[i]
		}
	}
	if ld == nil {
		t.Fatal("no LDS load emitted")
	}
	if ld.Value != 0xBEEF {
		t.Fatalf("load value %#x", ld.Value)
	}
	if ld.Addr != ld.BaseValue+4 {
		t.Fatalf("addr %#x base %#x", ld.Addr, ld.BaseValue)
	}
}

func TestOverheadTagging(t *testing.T) {
	_, stats := drain(t, func(a *Asm) {
		p := a.Malloc(12)
		a.Load(100, p, 0, 0)
		a.Overhead(func() {
			a.Load(101, p, 0, 0)
			a.Alu(102, 0, Val{}, Val{})
		})
		a.Prefetch(103, p, 0, 0) // prefetches are always overhead
	})
	if stats.OvhdInsts != 3 {
		t.Fatalf("overhead insts = %d, want 3", stats.OvhdInsts)
	}
}

func TestBranchMetadata(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		a.Branch(100, true, 200, Imm(1), Imm(2))
		a.Branch(101, false, 300, Val{}, Val{})
	})
	if !insts[0].Taken || insts[0].Target != SitePC(200) {
		t.Fatalf("taken branch: %+v", insts[0])
	}
	if insts[1].Taken {
		t.Fatal("not-taken branch marked taken")
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		x := a.Alu(100, 42, Imm(42), Val{})
		a.Push(101, x)
		y := a.Pop(102)
		if y.U32() != 42 {
			t.Errorf("popped %d, want 42", y.U32())
		}
		a.Alu(103, y.U32(), y, Val{})
	})
	// Push is a store, pop a load, to the same stack address.
	var st, ld *DynInst
	for i := range insts {
		switch insts[i].Class {
		case Store:
			st = &insts[i]
		case Load:
			ld = &insts[i]
		}
	}
	if st == nil || ld == nil || st.Addr != ld.Addr {
		t.Fatal("push/pop did not use the same stack slot")
	}
	if st.Addr < GlobalBase {
		t.Fatal("stack slot below the stack region")
	}
}

func TestMallocEmitsAllocatorCost(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		a.Malloc(12)
	})
	if len(insts) < 5 {
		t.Fatalf("Malloc emitted only %d instructions", len(insts))
	}
	var loads, stores int
	for _, d := range insts {
		switch d.Class {
		case Load:
			loads++
		case Store:
			stores++
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatal("Malloc must touch allocator metadata")
	}
}

func TestGenBatchingAcrossBoundary(t *testing.T) {
	n := BatchSize*2 + 17
	insts, stats := drain(t, func(a *Asm) {
		for i := 0; i < n; i++ {
			a.Alu(100, uint32(i), Val{}, Val{})
		}
	})
	if len(insts) != n {
		t.Fatalf("got %d instructions, want %d", len(insts), n)
	}
	if stats.Total() != uint64(n) {
		t.Fatalf("stats total %d", stats.Total())
	}
	// Values must survive batch reuse (we copied them out).
	for i, d := range insts {
		if d.Value != uint32(i) {
			t.Fatalf("inst %d value %d", i, d.Value)
		}
	}
}

func TestGenStopUnwindsKernel(t *testing.T) {
	alloc := heap.New(mem.NewImage())
	g := NewGen(alloc, func(a *Asm) {
		for i := 0; ; i++ {
			a.Nop(100)
		}
	})
	// Pull a couple of batches, then abandon.
	for i := 0; i < BatchSize+5; i++ {
		if g.Next() == nil {
			t.Fatal("stream ended unexpectedly")
		}
	}
	g.Stop()
	if g.Stats().Total() == 0 {
		t.Fatal("stats unavailable after Stop")
	}
	// Idempotent.
	g.Stop()
}

// TestGenStopLeaksNoGoroutine pins the Stop shutdown contract: the
// kernel goroutine must unwind deterministically (ch closes after at
// most one in-flight batch), not linger blocked on a channel.  Many
// abandoned generators accumulate in a long harness batch, so a leak
// here is a memory leak at scale.
func TestGenStopLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		alloc := heap.New(mem.NewImage())
		g := NewGen(alloc, func(a *Asm) {
			for {
				a.Nop(100)
			}
		})
		// Stop mid-batch: the kernel is blocked sending or filling.
		for j := 0; j < BatchSize+5; j++ {
			if g.Next() == nil {
				t.Fatal("stream ended unexpectedly")
			}
		}
		g.Stop()
	}
	// Stop's drain loop only returns once ch is closed, which the
	// kernel goroutine does as it unwinds — so no settling loop should
	// be needed; the generous retry below only absorbs unrelated
	// runtime goroutines coming and going.
	for try := 0; ; try++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if try >= 100 {
			t.Fatalf("goroutines: %d before, %d after 50 Stops", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestKernelPanicPropagates(t *testing.T) {
	alloc := heap.New(mem.NewImage())
	g := NewGen(alloc, func(a *Asm) {
		a.Nop(100)
		panic("kernel bug")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("kernel panic did not propagate to the consumer")
		}
	}()
	for d := g.Next(); d != nil; d = g.Next() {
	}
}

func TestStatsClassCounts(t *testing.T) {
	_, stats := drain(t, func(a *Asm) {
		p := a.Malloc(12)
		a.Load(100, p, 0, FLDS)
		a.Load(101, p, 4, 0)
		a.Op(102, FpMult, 0, Val{}, Val{})
		a.Branch(103, false, 100, Val{}, Val{})
	})
	if stats.LDSLoads != 1 {
		t.Fatalf("LDS loads = %d", stats.LDSLoads)
	}
	if stats.Counts[FpMult] != 1 || stats.Counts[Branch] != 2 {
		// (Malloc emits one branch of its own.)
		t.Fatalf("class counts: %v", stats.Counts)
	}
}

func TestLoadIdxTwoSources(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		base := a.Alu(100, GlobalBase, Imm(GlobalBase), Val{})
		idx := a.Alu(101, 8, Imm(8), Val{})
		a.StoreGlobal(102, 8, Imm(77))
		v := a.LoadIdx(103, base, idx, 0, 0)
		if v.U32() != 77 {
			t.Errorf("LoadIdx read %d, want 77", v.U32())
		}
	})
	var ld *DynInst
	for i := range insts {
		if insts[i].Class == Load {
			ld = &insts[i]
		}
	}
	if ld.Src1 == 0 || ld.Src2 == 0 {
		t.Fatal("LoadIdx must carry both register sources")
	}
}

func TestGlobalAccess(t *testing.T) {
	drain(t, func(a *Asm) {
		a.StoreGlobal(100, 0x40, Imm(123))
		v := a.LoadGlobal(101, 0x40)
		if v.U32() != 123 {
			t.Errorf("global roundtrip got %d", v.U32())
		}
	})
}

func TestCallRetFlags(t *testing.T) {
	insts, _ := drain(t, func(a *Asm) {
		a.Call(100, 200)
		a.Ret(101)
	})
	if insts[0].Class != Jump || insts[0].Flags&FCall == 0 {
		t.Fatalf("call not flagged: %+v", insts[0])
	}
	if insts[1].Flags&FReturn == 0 {
		t.Fatalf("ret not flagged: %+v", insts[1])
	}
}

func TestClassStrings(t *testing.T) {
	for c := Nop; c < Class(NumClasses); c++ {
		if c.String() == "?" {
			t.Fatalf("class %d has no name", c)
		}
	}
}

func TestAddImm(t *testing.T) {
	drain(t, func(a *Asm) {
		x := a.Alu(100, 10, Imm(10), Val{})
		y := a.AddImm(101, x, 5)
		if y.U32() != 15 {
			t.Errorf("AddImm = %d", y.U32())
		}
	})
}

func TestFreeNodeEmitsAndRecycles(t *testing.T) {
	drain(t, func(a *Asm) {
		p := a.Malloc(12)
		a.FreeNode(p)
		q := a.Malloc(12)
		if q.U32() != p.U32() {
			t.Errorf("free block not recycled through Asm")
		}
	})
}

// drainBatches runs a kernel through NextBatch and collects its
// instructions, their dispatch metadata, and the emission stats.
func drainBatches(t *testing.T, kernel func(*Asm)) ([]DynInst, []InstMeta, Stats) {
	t.Helper()
	alloc := heap.New(mem.NewImage())
	g := NewGen(alloc, kernel)
	var ins []DynInst
	var meta []InstMeta
	for {
		b, m := g.NextBatch()
		if b == nil {
			break
		}
		ins = append(ins, b...)
		meta = append(meta, m...)
	}
	return ins, meta, g.Stats()
}

// refMeta independently recomputes the dispatch metadata a stream must
// carry: a pure function of the instruction sequence, with the fetch
// line reset by taken control flow.
func refMeta(ins []DynInst) []InstMeta {
	var line uint32
	out := make([]InstMeta, len(ins))
	for i := range ins {
		d := &ins[i]
		var m InstMeta
		switch d.Class {
		case Load, Prefetch:
			m = MetaMem
		case Store:
			m = MetaMem | MetaStore
		case Branch, Jump:
			m = MetaCtrl
		}
		l := d.PC>>5<<5 | 1
		if l != line {
			m |= MetaNewLine
		}
		if d.Class == Jump || (d.Class == Branch && d.Taken) {
			line = 0
		} else {
			line = l
		}
		out[i] = m
	}
	return out
}

// loopKernel emits a uniform pointer-chase-style loop.
func loopKernel(n int) func(*Asm) {
	return func(a *Asm) {
		p := a.Malloc(64)
		for i := 0; i < n; i++ {
			v := a.Load(100, p, 0, FLDS)
			w := a.Alu(101, v.U32()+1, v, Val{})
			a.Store(102, p, 0, w)
			a.Branch(103, i+1 < n, 100, w, Val{})
		}
	}
}

// divergentKernel takes a data-dependent emission path inside the loop
// body every third iteration, so the same PCs are not always followed
// by the same instructions.
func divergentKernel(n int) func(*Asm) {
	return func(a *Asm) {
		p := a.Malloc(64)
		for i := 0; i < n; i++ {
			a.Load(100, p, 0, 0)
			if i%3 == 1 {
				a.Alu(101, uint32(i), Val{}, Val{})
			}
			a.Alu(102, 2, Val{}, Val{})
			a.Branch(103, i+1 < n, 100, Val{}, Val{})
		}
	}
}

// overheadKernel toggles overhead tagging across iterations of the same
// PC region, so the same PCs are seen with different final flags.
func overheadKernel(n int) func(*Asm) {
	return func(a *Asm) {
		p := a.Malloc(64)
		for i := 0; i < n; i++ {
			body := func() {
				a.Load(100, p, 0, FLDS)
				a.Prefetch(101, p, 32, 0)
				a.Branch(102, i+1 < n, 100, Val{}, Val{})
			}
			if i%2 == 0 {
				a.Overhead(body)
			} else {
				body()
			}
		}
	}
}

// straightKernel emits long control-free runs spanning many fetch
// lines, each closed by a jump back to the start.
func straightKernel(n int) func(*Asm) {
	const run = 192
	return func(a *Asm) {
		for i := 0; i < n; i++ {
			for s := 0; s < run; s++ {
				a.Alu(100+s, uint32(s), Val{}, Val{})
			}
			a.Jump(100+run, 100, 0)
		}
	}
}

// frontEndKernels are the emission patterns the span front end's
// metadata must survive.
var frontEndKernels = map[string]func(*Asm){
	"loop":      loopKernel(700),
	"divergent": divergentKernel(700),
	"overhead":  overheadKernel(700),
	"straight":  straightKernel(40),
	"batchspan": loopKernel(3 * BatchSize), // loop bodies straddling batch boundaries
}

// TestReplayStreamIdentical checks that the span drain the core's front
// end replays (NextBatch) delivers exactly the per-instruction stream
// (Next), with one metadata byte per instruction and identical
// accounting totals.
func TestReplayStreamIdentical(t *testing.T) {
	for name, kern := range frontEndKernels {
		t.Run(name, func(t *testing.T) {
			spans, meta, spanStats := drainBatches(t, kern)
			insts, instStats := drain(t, kern)
			if len(meta) != len(spans) {
				t.Fatalf("%d meta bytes for %d instructions", len(meta), len(spans))
			}
			if len(spans) != len(insts) {
				t.Fatalf("stream lengths differ: %d vs %d", len(spans), len(insts))
			}
			for i := range spans {
				if spans[i] != insts[i] {
					t.Fatalf("inst %d differs:\n  span: %+v\n  next: %+v", i, spans[i], insts[i])
				}
			}
			if spanStats != instStats {
				t.Fatalf("stats differ:\n  span: %+v\n  next: %+v", spanStats, instStats)
			}
		})
	}
}

// TestReplayMetaExact checks every metadata byte the span front end
// replays — across divergent emission paths, overhead toggles, long
// straight-line runs and batch boundaries — against an independent
// recomputation from the stream.
func TestReplayMetaExact(t *testing.T) {
	for name, kern := range frontEndKernels {
		t.Run(name, func(t *testing.T) {
			ins, meta, _ := drainBatches(t, kern)
			if len(meta) != len(ins) {
				t.Fatalf("%d meta bytes for %d instructions", len(meta), len(ins))
			}
			want := refMeta(ins)
			for i := range want {
				if meta[i] != want[i] {
					t.Fatalf("inst %d (%s pc=%#x): meta %#x, want %#x",
						i, ins[i].Class, ins[i].PC, meta[i], want[i])
				}
			}
		})
	}
}

// TestNextBatchMatchesNext checks the two drain APIs deliver the same
// stream, including after a partial per-instruction drain.
func TestNextBatchMatchesNext(t *testing.T) {
	kern := loopKernel(2*BatchSize + 100)
	viaNext, _ := drain(t, kern)
	var mixed []DynInst
	{
		alloc := heap.New(mem.NewImage())
		g := NewGen(alloc, kern)
		// Start per-instruction, then switch to batch drain mid-batch.
		for i := 0; i < 10; i++ {
			mixed = append(mixed, *g.Next())
		}
		for {
			b, m := g.NextBatch()
			if b == nil {
				break
			}
			if len(m) != len(b) {
				t.Fatalf("meta length %d for batch length %d", len(m), len(b))
			}
			mixed = append(mixed, b...)
		}
	}
	if len(viaNext) != len(mixed) {
		t.Fatalf("lengths differ: %d vs %d", len(viaNext), len(mixed))
	}
	for i := range viaNext {
		if viaNext[i] != mixed[i] {
			t.Fatalf("inst %d differs", i)
		}
	}
}
