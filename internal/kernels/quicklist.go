package kernels

import (
	"slices"

	"repro/internal/core"
	"repro/internal/ir"
)

// quicklist models a QuickList (SNIPPETS.md snippet 3): a singly-linked
// list whose nodes carry a skip pointer to the node `interval` links
// ahead, maintained by the data structure itself — appended during
// construction and re-pointed on every insert and remove.  Because the
// skip field is architectural state written under every scheme, the
// software and cooperative schemes need no creation idiom at all: the
// prefetch simply chases a pointer the program keeps correct anyway,
// so the paper's "a priori creation overhead" is zero and the only
// cost is the maintenance the structure already pays.
//
// Layout (payload bytes; blocks round to power-of-two classes):
//
//	node: val(0) next(4) skip(8) = 12 -> 16
const (
	qlVal  = 0
	qlNext = 4
	qlSkip = 8
)

// Static sites for quicklist.
const (
	qlBuild = ir.FirstUserSite + iota*8
	qlWalk
	qlChurn
	qlFix
	qlIdiom
)

func init() {
	Register(&Benchmark{
		Name:        "quicklist",
		Description: "list that maintains its own jump pointers (QuickList)",
		Structures:  "singly-linked list + structural skip pointers",
		Behavior:    "full walks between insert/remove churn; zero creation idiom",
		Idioms:      []core.Idiom{core.IdiomChain},
		Traversals:  8,
		Extension:   true,
		Kernel:      quicklistKernel,
	})
}

type quicklistCfg struct {
	nodes  int
	rounds int // walk + churn rounds
	churn  int // insert/remove pairs per round
}

func quicklistSizes(s Size) quicklistCfg {
	switch s {
	case SizeTest:
		return quicklistCfg{nodes: 48, rounds: 2, churn: 6}
	case SizeSmall:
		return quicklistCfg{nodes: 2048, rounds: 3, churn: 128}
	case SizeLarge:
		// 64K x 16B = 1MB of nodes: well past the L2.
		return quicklistCfg{nodes: 64000, rounds: 4, churn: 4000}
	default:
		// 24K x 16B = 384KB of nodes: far beyond the L1, most of the
		// way into the L2.
		return quicklistCfg{nodes: 24000, rounds: 4, churn: 1500}
	}
}

func quicklistKernel(p Params) func(*ir.Asm) {
	cfg := quicklistSizes(p.Size)
	idiom := swIdiom(p, core.IdiomChain)
	isCoop := coop(p)
	dist := interval(p) // structural skip distance

	return func(a *ir.Asm) {
		r := newRNG(0x45d9f3b3)

		// order mirrors the list so churn knows each node's position;
		// every link and skip mutation is still emitted.
		var order qlSeq

		// fixSkips re-points the skip fields of the dist nodes ending
		// at position pos (a real QuickList carries this lag window in
		// its jump list; the snippet's left/right pointer shifts do the
		// same work).  Each re-point is one emitted store; targets past
		// the tail clear the field.
		fixSkips := func(pos int) {
			for j := pos; j >= pos-dist && j >= 0; j-- {
				tgt := ir.Imm(0)
				if j+dist < order.len() {
					tgt = order.at(j + dist)
				}
				a.Store(qlFix, order.at(j), qlSkip, tgt)
			}
		}

		// Build: append nodes, installing each skip pointer as soon as
		// its target exists — construction maintains the structure.
		for i := 0; i < cfg.nodes; i++ {
			n := a.Malloc(12)
			a.Store(qlBuild, n, qlVal, ir.Imm(r.next()&0xFFFF))
			if i > 0 {
				a.Store(qlBuild+1, order.at(i-1), qlNext, n)
			}
			order.insert(i, n)
			if i >= dist {
				a.Store(qlBuild+2, order.at(i-dist), qlSkip, n)
			}
		}

		// walk chases the whole list; under the software schemes each
		// visit prefetches through the structural skip field (no
		// creation code, no jump queue).
		walk := func() {
			cur := order.at(0)
			sum := ir.Imm(0)
			for !cur.IsNil() {
				if prefetchOn(p) && idiom != core.IdiomNone {
					queuePrefetch(a, qlIdiom, cur, qlSkip, isCoop)
				}
				v := a.Load(qlWalk, cur, qlVal, ir.FLDS)
				sum = a.Alu(qlWalk+1, sum.U32()+v.U32(), sum, v)
				nxt := a.Load(qlWalk+2, cur, qlNext, ir.FLDS)
				a.Branch(qlWalk+3, !nxt.IsNil(), qlWalk, nxt, ir.Val{})
				cur = nxt
			}
			acc := a.LoadGlobal(qlWalk+4, accBase)
			a.StoreGlobal(qlWalk+5, accBase, a.Alu(qlWalk+6, acc.U32()+sum.U32(), acc, sum))
		}

		insertAt := func(pos int) {
			n := a.Malloc(12)
			a.Store(qlChurn, n, qlVal, ir.Imm(r.next()&0xFFFF))
			prev := order.at(pos)
			nxt := a.Load(qlChurn+1, prev, qlNext, ir.FLDS)
			a.Store(qlChurn+2, n, qlNext, nxt)
			a.Store(qlChurn+3, prev, qlNext, n)
			order.insert(pos+1, n)
			fixSkips(pos + 1)
		}

		removeAt := func(pos int) {
			victim := order.at(pos)
			prev := order.at(pos - 1)
			nxt := a.Load(qlChurn+4, victim, qlNext, ir.FLDS)
			a.Store(qlChurn+5, prev, qlNext, nxt)
			a.FreeNode(victim)
			order.remove(pos)
			fixSkips(pos - 1)
		}

		for round := 0; round < cfg.rounds; round++ {
			walk()
			for c := 0; c < cfg.churn; c++ {
				insertAt(r.intn(order.len() - 1))
				removeAt(r.intn(order.len()-2) + 1)
			}
		}
	}
}

// qlSeqBlock is qlSeq's target block length: a block splits in two
// when it reaches twice this many elements.
const qlSeqBlock = 512

// qlSeq is a positional sequence of values held as a list of blocks of
// about qlSeqBlock elements, so at, insert and remove cost O(n/B + B)
// rather than the O(n) element shift of a flat slice.  Emptied blocks
// are dropped.  A cursor remembers the block of the last lookup and
// where it starts: the kernel's accesses cluster (the skip window, the
// build tail), so most lookups step over no block at all.
type qlSeq struct {
	blocks   [][]ir.Val
	n        int
	cur      int // block of the last lookup
	curStart int // position of blocks[cur][0]
}

func (s *qlSeq) len() int { return s.n }

// find returns the block holding position i and i's offset in it, for
// 0 <= i <= len; i == len maps to the end of the last block.  It walks
// from the cursor and leaves the cursor on the block it returns.
// insert and remove touch only that block: a split leaves its start in
// place, and dropping it once emptied moves its successor, which starts
// at the same position, into its index.  So the cursor stays valid
// unless it falls off the end.
func (s *qlSeq) find(i int) (int, int) {
	b, start := s.cur, s.curStart
	if b >= len(s.blocks) {
		b, start = 0, 0
	}
	for i < start {
		b--
		start -= len(s.blocks[b])
	}
	for b < len(s.blocks)-1 && i-start >= len(s.blocks[b]) {
		start += len(s.blocks[b])
		b++
	}
	s.cur, s.curStart = b, start
	return b, i - start
}

func (s *qlSeq) at(i int) ir.Val {
	b, o := s.find(i)
	return s.blocks[b][o]
}

// insert places v at position i (0 <= i <= len), shifting later
// elements up by one.
func (s *qlSeq) insert(i int, v ir.Val) {
	if len(s.blocks) == 0 {
		s.blocks = append(s.blocks, make([]ir.Val, 0, 2*qlSeqBlock))
	}
	b, o := s.find(i)
	blk := slices.Insert(s.blocks[b], o, v)
	s.n++
	if len(blk) < 2*qlSeqBlock {
		s.blocks[b] = blk
		return
	}
	tail := make([]ir.Val, qlSeqBlock, 2*qlSeqBlock)
	copy(tail, blk[qlSeqBlock:])
	s.blocks[b] = blk[:qlSeqBlock]
	s.blocks = slices.Insert(s.blocks, b+1, tail)
}

// remove deletes the element at position i (0 <= i < len).
func (s *qlSeq) remove(i int) {
	b, o := s.find(i)
	blk := slices.Delete(s.blocks[b], o, o+1)
	s.n--
	if len(blk) == 0 {
		s.blocks = slices.Delete(s.blocks, b, b+1)
		return
	}
	s.blocks[b] = blk
}
