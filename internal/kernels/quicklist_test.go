package kernels

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/ir"
	"repro/internal/mem"
)

// streamDigest drains kernel through a generator with no timing core
// and returns the instruction count and an FNV-1a hash over every
// DynInst field of every instruction, in stream order.
func streamDigest(kernel func(*ir.Asm)) (uint64, uint64) {
	g := ir.NewGen(heap.New(mem.NewImage()), kernel)
	h := fnv.New64a()
	var buf [47]byte
	var n uint64
	for d := g.Next(); d != nil; d = g.Next() {
		binary.LittleEndian.PutUint64(buf[0:], d.Seq)
		binary.LittleEndian.PutUint64(buf[8:], d.Src1)
		binary.LittleEndian.PutUint64(buf[16:], d.Src2)
		binary.LittleEndian.PutUint32(buf[24:], d.PC)
		binary.LittleEndian.PutUint32(buf[28:], d.Addr)
		binary.LittleEndian.PutUint32(buf[32:], d.Value)
		binary.LittleEndian.PutUint32(buf[36:], d.BaseValue)
		binary.LittleEndian.PutUint32(buf[40:], d.Target)
		buf[44] = byte(d.Class)
		buf[45] = byte(d.Flags)
		buf[46] = 0
		if d.Taken {
			buf[46] = 1
		}
		h.Write(buf[:])
		n++
	}
	return n, h.Sum64()
}

// TestQuicklistLargeStream pins quicklist's large-size instruction
// stream, the size the kernels-large benchmark workload runs and the
// golden snapshots do not cover.  The constants were computed with a
// flat-slice position mirror in place of qlSeq, so they hold the
// blocked sequence to the same emitted stores, loads, allocations and
// RNG draws.
func TestQuicklistLargeStream(t *testing.T) {
	tests := []struct {
		scheme core.Scheme
		insts  uint64
		digest uint64
	}{
		{core.SchemeNone, 2207990, 0xb093f85616271141},
		{core.SchemeCooperative, 2463990, 0x8264d511ee71b4fb},
	}
	for _, tc := range tests {
		n, sum := streamDigest(quicklistKernel(Params{Scheme: tc.scheme, Size: SizeLarge}))
		if n != tc.insts || sum != tc.digest {
			t.Errorf("%s: stream = %d insts, digest %#016x; want %d, %#016x",
				tc.scheme, n, sum, tc.insts, tc.digest)
		}
	}
}

// TestQLSeqMatchesSlice applies one seeded random script of inserts,
// removes and reads to a qlSeq and to a flat slice and checks that the
// two agree throughout.  The script grows the sequence past several
// block splits (appending at the end, inserting at the front, the end
// and the middle), empties the first and the last block so each is
// dropped, then drains it to a single element and back out to empty.
// Reads run forwards and backwards from wherever the previous step left
// the lookup cursor.
func TestQLSeqMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(0x51ee))
	var s qlSeq
	var ref []ir.Val
	next := uint32(1)
	val := func() ir.Val {
		next++
		return ir.Imm(next)
	}
	check := func(step string) {
		t.Helper()
		if s.len() != len(ref) {
			t.Fatalf("%s: len = %d, want %d", step, s.len(), len(ref))
		}
		n := 0
		for _, blk := range s.blocks {
			if len(blk) == 0 || len(blk) >= 2*qlSeqBlock {
				t.Fatalf("%s: block of %d elements", step, len(blk))
			}
			n += len(blk)
		}
		if n != len(ref) {
			t.Fatalf("%s: blocks hold %d elements, len %d", step, n, len(ref))
		}
		for i, want := range ref {
			if got := s.at(i); got != want {
				t.Fatalf("%s: at(%d) = %v, want %v", step, i, got, want)
			}
		}
	}
	insert := func(i int) {
		v := val()
		s.insert(i, v)
		ref = slices.Insert(ref, i, v)
	}
	remove := func(i int) {
		s.remove(i)
		ref = slices.Delete(ref, i, i+1)
	}

	// Appends fill the first block and split it several times.
	for i := 0; i < 3*qlSeqBlock; i++ {
		insert(len(ref))
		if i%97 == 0 {
			check("append")
		}
	}
	check("append")
	// Mixed inserts at 0, at len and anywhere, with some removes.
	for step := 0; step < 4*qlSeqBlock; step++ {
		switch r.Intn(5) {
		case 0:
			insert(0)
		case 1:
			insert(len(ref))
		case 2:
			remove(r.Intn(len(ref)))
		default:
			insert(r.Intn(len(ref) + 1))
		}
		if step%61 == 0 {
			check("mixed")
		}
	}
	check("mixed")
	if len(s.blocks) < 4 {
		t.Fatalf("script produced only %d blocks; it must exercise splits", len(s.blocks))
	}
	// Empty the first block from its last element down, so the block
	// is dropped when its final element goes.
	for n := len(s.blocks[0]); n > 0; n-- {
		blocks := len(s.blocks)
		remove(n - 1)
		if n == 1 && len(s.blocks) != blocks-1 {
			t.Fatalf("emptied block not dropped: %d blocks, want %d", len(s.blocks), blocks-1)
		}
	}
	check("drop block")
	// The same from the back: the lookup cursor sits on the last block
	// when it is dropped.
	for n := len(s.blocks[len(s.blocks)-1]); n > 0; n-- {
		remove(len(ref) - 1)
	}
	insert(len(ref))
	check("drop last block")
	// Reads walking backwards, across every block boundary.
	for i := len(ref) - 1; i >= 0; i-- {
		if got := s.at(i); got != ref[i] {
			t.Fatalf("backward: at(%d) = %v, want %v", i, got, ref[i])
		}
	}
	// Drain to one element at random positions, then to empty and
	// back, so the sequence restarts from no blocks at all.
	for len(ref) > 1 {
		remove(r.Intn(len(ref)))
		check("drain")
	}
	remove(0)
	check("empty")
	insert(0)
	insert(1)
	insert(0)
	check("refill")
}
