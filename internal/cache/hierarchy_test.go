package cache

import (
	"testing"
	"testing/quick"
)

func defaultHier() *Hierarchy { return New(Defaults()) }

func TestL1HitTiming(t *testing.T) {
	h := defaultHier()
	// Cold miss first.
	r := h.AccessData(100, 0x1000, KLoad)
	if !r.MissL1 {
		t.Fatal("first access must miss")
	}
	// Subsequent access after the fill completes: 1-cycle hit.
	now := r.Done + 10
	r2 := h.AccessData(now, 0x1000, KLoad)
	if r2.MissL1 || r2.Done != now+1 {
		t.Fatalf("expected 1-cycle hit, got %+v (now=%d)", r2, now)
	}
}

func TestL2HitFasterThanMemory(t *testing.T) {
	h := defaultHier()
	// Warm L2 but not L1 for 0x2000: access once (fills both), then
	// evict from L1 by filling its set.
	first := h.AccessData(0, 0x2000, KLoad)
	memLat := first.Done
	// L1D is 64KB 2-way with 32B lines: addresses 32KB apart map to the
	// same set.  Two more fills evict 0x2000 from L1 while L2 keeps it.
	now := first.Done + 1
	for i := 1; i <= 2; i++ {
		r := h.AccessData(now, 0x2000+uint32(i*32<<10), KLoad)
		now = r.Done + 1
	}
	r := h.AccessData(now, 0x2000, KLoad)
	if !r.MissL1 || r.MissL2 {
		t.Fatalf("expected L1 miss / L2 hit, got %+v", r)
	}
	l2Lat := r.Done - now
	if l2Lat >= memLat {
		t.Fatalf("L2 hit (%d cycles) not faster than memory (%d cycles)", l2Lat, memLat)
	}
	if l2Lat < 12 {
		t.Fatalf("L2 hit latency %d below the 12-cycle access time", l2Lat)
	}
}

func TestMemoryLatencyDominatesColdMiss(t *testing.T) {
	h := defaultHier()
	r := h.AccessData(0, 0x3000, KLoad)
	// 12 (L2 lookup) + 70 (memory) + bus transfers; TLB miss adds 30.
	if lat := r.Done; lat < 70 || lat > 200 {
		t.Fatalf("cold miss latency %d outside plausible range", lat)
	}
	if !r.MissL1 || !r.MissL2 || !r.TLBMiss {
		t.Fatalf("cold miss flags wrong: %+v", r)
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	h := defaultHier()
	r1 := h.AccessData(0, 0x4000, KLoad)
	before := h.Stats().MemBytes
	// Same line, one cycle later: must merge onto the in-flight fill.
	r2 := h.AccessData(1, 0x4004, KLoad)
	if h.Stats().MemBytes != before {
		t.Fatal("secondary miss generated new memory traffic")
	}
	if r2.Done > r1.Done {
		t.Fatalf("merged access finishes later (%d) than the fill (%d)", r2.Done, r1.Done)
	}
}

func TestMSHRLimitThrottles(t *testing.T) {
	h := defaultHier()
	// Issue 9 misses to distinct lines in the same cycle: the 9th must
	// wait for an MSHR.
	var dones []uint64
	for i := 0; i < 9; i++ {
		r := h.AccessData(0, uint32(0x10000+i*4096), KLoad)
		dones = append(dones, r.Done)
	}
	max8 := uint64(0)
	for _, d := range dones[:8] {
		if d > max8 {
			max8 = d
		}
	}
	if dones[8] <= max8 {
		t.Fatalf("9th concurrent miss (%d) did not queue behind the 8 MSHRs (max %d)", dones[8], max8)
	}
}

// TestStoreMissBurstQueues shows where DemandWaitSum's store waits
// come from.  The core retires a store one cycle after issue and never
// stalls on it, so a burst of store misses reaches the hierarchy at one
// per cycle.  Each miss still books an MSHR and the memory bus: past
// the MSHR count a miss may start only when an earlier one's critical
// word arrives (mshrAlloc hands out the earliest-free slot however far
// ahead it is booked), and every miss serialises behind the previous
// line transfer on the memory bus.  The k-th store's wait therefore
// grows linearly in k, the burst's wait sum quadratically, and all of
// it lands in DemandWaitSum.  A load that misses after the burst waits
// behind the whole backlog.
func TestStoreMissBurstQueues(t *testing.T) {
	p := Defaults()
	// Cycles one L2 line holds the memory bus: the per-miss service
	// time once the burst saturates it.
	busLine := uint64(p.L2.LineBytes/p.ChunkBytes) * uint64(p.MemChunkCycles)
	const page = 0x40000

	// fresh returns a hierarchy with page's translation warm and the
	// memory system idle at the returned cycle.
	fresh := func() (*Hierarchy, uint64) {
		h := New(p)
		r := h.AccessData(0, page, KLoad)
		return h, r.Done + 1000
	}

	// One store miss alone: the unloaded miss latency.
	h, now := fresh()
	unloaded := h.AccessData(now, page+uint32(p.L2.LineBytes), KStore).Done - now

	// A burst of store misses, one per cycle, each to its own L2 line.
	h, now = fresh()
	before := h.Stats().DemandWaitSum
	n := 4 * p.MSHRs
	var sum, mshrQueued uint64
	for k := 0; k < n; k++ {
		issue := now + uint64(k)
		addr := page + uint32((k+1)*p.L2.LineBytes)
		start, _ := h.mshrAlloc(issue) // read-only: when this miss may start
		r := h.AccessData(issue, addr, KStore)
		if !r.MissL1 || !r.MissL2 {
			t.Fatalf("store %d: want an L1 and L2 miss, got %+v", k, r)
		}
		wait := r.Done - issue
		// Each miss after the first waits one memory-bus line time more
		// than the one before, less the cycle between their issues.
		if want := unloaded + uint64(k)*(busLine-1); wait != want {
			t.Fatalf("store %d waited %d cycles, want %d (unloaded %d + %d x %d)",
				k, wait, want, unloaded, k, busLine-1)
		}
		if k < p.MSHRs && start != issue {
			t.Fatalf("store %d: a free MSHR must start the miss at issue %d, got %d", k, issue, start)
		}
		if k >= p.MSHRs && start <= issue {
			t.Fatalf("store %d: with every MSHR booked the miss must queue, start %d issue %d", k, start, issue)
		}
		sum += wait
		mshrQueued += start - issue
	}
	if got := h.Stats().DemandWaitSum - before; got != sum {
		t.Fatalf("DemandWaitSum grew by %d, want the burst's wait sum %d", got, sum)
	}
	t.Logf("%d store misses: wait sum %d cycles, %d of it beyond the unloaded %d each; %d queued behind booked MSHRs",
		n, sum, sum-uint64(n)*unloaded, unloaded, mshrQueued)

	// The backlog is real for loads: a load miss issued right after the
	// burst waits behind every booked transfer.
	issue := now + uint64(n)
	r := h.AccessData(issue, page+uint32((n+1)*p.L2.LineBytes), KLoad)
	if want := unloaded + uint64(n)*(busLine-1); r.Done-issue != want {
		t.Fatalf("load after the burst waited %d cycles, want %d", r.Done-issue, want)
	}
}

func TestPrefetchBufferFlow(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	// Prefetch a line, wait for it, then demand-load it: PB hit.
	r := h.AccessData(0, 0x5000, KPref)
	if r.Dropped {
		t.Fatal("cold prefetch must not be dropped")
	}
	now := r.Done + 5
	d := h.AccessData(now, 0x5000, KLoad)
	if !d.FromPB || d.Done != now+1 {
		t.Fatalf("expected timely PB hit, got %+v", d)
	}
	if h.Stats().PBHits != 1 || h.Stats().PBFills != 1 {
		t.Fatalf("PB counters wrong: %+v", h.Stats())
	}
	// The line moved into L1: a second demand access is a plain hit.
	d2 := h.AccessData(now+2, 0x5000, KLoad)
	if d2.MissL1 || d2.FromPB {
		t.Fatalf("line not installed into L1: %+v", d2)
	}
}

func TestPrefetchDroppedWhenPresent(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	r := h.AccessData(0, 0x6000, KLoad)
	pr := h.AccessData(r.Done+1, 0x6000, KPref)
	if !pr.Dropped {
		t.Fatal("prefetch of an L1-resident line must be dropped")
	}
}

func TestEarlyDemandWaitsOnInflightPrefetch(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	r := h.AccessData(0, 0x7000, KPref)
	d := h.AccessData(5, 0x7000, KLoad)
	if d.Done != r.Done {
		t.Fatalf("demand on in-flight prefetched line: done=%d, want fill time %d", d.Done, r.Done)
	}
	if h.Stats().PBHitWaitSum == 0 {
		t.Fatal("late-prefetch wait not recorded")
	}
}

func TestWritebackTraffic(t *testing.T) {
	h := defaultHier()
	// Dirty a line, then evict it by filling its set: writeback bytes
	// must appear on the L1<->L2 bus.
	r := h.AccessData(0, 0x8000, KStore)
	now := r.Done + 1
	for i := 1; i <= 2; i++ {
		rr := h.AccessData(now, uint32(0x8000+i*32<<10), KLoad)
		now = rr.Done + 1
	}
	if h.Stats().L1L2WritebackBytes == 0 {
		t.Fatal("dirty eviction produced no writeback traffic")
	}
}

func TestPerfectDataMode(t *testing.T) {
	p := Defaults()
	p.PerfectData = true
	h := New(p)
	for i := 0; i < 100; i++ {
		r := h.AccessData(uint64(i), uint32(0x9000+i*4096), KLoad)
		if r.Done != uint64(i)+1 || r.MissL1 {
			t.Fatalf("perfect data access %d: %+v", i, r)
		}
	}
	if h.Stats().L1L2Bytes != 0 {
		t.Fatal("perfect data mode moved bytes")
	}
}

func TestDemandCountersIgnorePrefetchProbes(t *testing.T) {
	p := Defaults()
	p.EnablePB = true
	h := New(p)
	h.AccessData(0, 0xA000, KPref)
	h.AccessData(1, 0xB000, KPref)
	if h.Stats().L1DAccesses != 0 || h.Stats().L1DMisses != 0 {
		t.Fatalf("prefetch probes polluted demand counters: %+v", h.Stats())
	}
}

func TestInstFetch(t *testing.T) {
	h := defaultHier()
	done, miss := h.AccessInst(0, 0x40_0000)
	if !miss || done < 12 {
		t.Fatalf("cold I-fetch: done=%d miss=%v", done, miss)
	}
	done2, miss2 := h.AccessInst(done+1, 0x40_0000)
	if miss2 || done2 != done+2 {
		t.Fatalf("warm I-fetch: done=%d miss=%v", done2, miss2)
	}
}

func TestHitAfterFillProperty(t *testing.T) {
	// Any address, once accessed and completed, hits on re-access.
	h := defaultHier()
	f := func(addr uint32) bool {
		r := h.AccessData(0, addr, KLoad)
		r2 := h.AccessData(r.Done+1, addr, KLoad)
		return !r2.MissL1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBusOccupancy(t *testing.T) {
	b := NewBus(8, 2)
	first, done := b.Transfer(0, 32)
	if first != 2 || done != 8 {
		t.Fatalf("32B over 8B/2c bus: first=%d done=%d, want 2, 8", first, done)
	}
	// Back-to-back transfer queues behind the first.
	first2, done2 := b.Transfer(0, 32)
	if first2 != 10 || done2 != 16 {
		t.Fatalf("second transfer: first=%d done=%d, want 10, 16", first2, done2)
	}
	if b.BytesMoved() != 64 || b.BusyCycles() != 16 {
		t.Fatalf("counters: bytes=%d busy=%d", b.BytesMoved(), b.BusyCycles())
	}
}

func TestTLBMissAndReuse(t *testing.T) {
	tlb := NewTLB(2, 4096, 30)
	ready, miss := tlb.Access(0, 0x1000)
	if !miss || ready != 30 {
		t.Fatalf("cold TLB access: ready=%d miss=%v", ready, miss)
	}
	ready, miss = tlb.Access(31, 0x1FFF) // same page
	if miss || ready != 31 {
		t.Fatalf("same-page access missed: ready=%d miss=%v", ready, miss)
	}
	// Two more pages evict the first (2 entries, LRU).
	tlb.Access(40, 0x2000)
	tlb.Access(50, 0x3000)
	_, miss = tlb.Access(60, 0x1000)
	if !miss {
		t.Fatal("LRU eviction did not occur")
	}
	acc, misses := tlb.Stats()
	if acc != 5 || misses != 4 {
		t.Fatalf("stats: %d accesses, %d misses", acc, misses)
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	g := Geom{SizeBytes: 128, LineBytes: 32, Assoc: 2, LatCycles: 1} // 2 sets
	c := newCache(g)
	// Three lines in set 0 (addresses 0, 64, 128): LRU evicts the
	// least recently used.
	c.fill(0)
	c.fill(64)
	c.lookup(0) // refresh 0
	c.fill(128) // evicts 64
	if !c.probe(0) || c.probe(64) || !c.probe(128) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	g := Geom{SizeBytes: 128, LineBytes: 32, Assoc: 2, LatCycles: 1}
	c := newCache(g)
	c.fill(0x1000) // set 0
	c.fill(0x2000) // set 0
	victim, _, had := c.fill(0x3000)
	if !had || victim != 0x1000 {
		t.Fatalf("victim = %#x, want 0x1000", victim)
	}
}

func TestGeomSets(t *testing.T) {
	g := Geom{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2}
	if g.Sets() != 1024 {
		t.Fatalf("Sets = %d", g.Sets())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count accepted")
		}
	}()
	newCache(Geom{SizeBytes: 96, LineBytes: 32, Assoc: 1})
}

func TestJPStoreKind(t *testing.T) {
	h := defaultHier()
	// A jump-pointer store to a resident line dirties it like a store.
	r := h.AccessData(0, 0xC000, KLoad)
	h.AccessData(r.Done+1, 0xC000, KJPStore)
	now := r.Done + 2
	for i := 1; i <= 2; i++ {
		rr := h.AccessData(now, uint32(0xC000+i*32<<10), KLoad)
		now = rr.Done + 1
	}
	if h.Stats().L1L2WritebackBytes == 0 {
		t.Fatal("JP store did not dirty the line")
	}
}

func TestDirtyL1AndPresentL1(t *testing.T) {
	h := defaultHier()
	if h.PresentL1(0xD000) {
		t.Fatal("cold line reported present")
	}
	r := h.AccessData(0, 0xD000, KLoad)
	if !h.PresentL1(0xD000) {
		t.Fatal("fetched line not present")
	}
	h.DirtyL1(0xD000)
	now := r.Done + 1
	for i := 1; i <= 2; i++ {
		rr := h.AccessData(now, uint32(0xD000+i*32<<10), KLoad)
		now = rr.Done + 1
	}
	if h.Stats().L1L2WritebackBytes == 0 {
		t.Fatal("DirtyL1 line evicted without writeback")
	}
}

func TestMemLatencyParameterScales(t *testing.T) {
	fast, slow := Defaults(), Defaults()
	slow.MemLatency = 700
	hf, hs := New(fast), New(slow)
	rf := hf.AccessData(0, 0x1000, KLoad)
	rs := hs.AccessData(0, 0x1000, KLoad)
	if rs.Done < rf.Done+600 {
		t.Fatalf("latency parameter ignored: %d vs %d", rs.Done, rf.Done)
	}
}
