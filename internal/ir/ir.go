// Package ir defines the micro instruction representation that connects
// workload kernels to the timing simulator.
//
// Workloads are written against the Asm kernel-builder API.  Each Asm
// call both *functionally executes* (reads and writes the simulated
// memory image, so addresses, pointer values and branch outcomes are
// real) and *emits* a dynamic instruction that the out-of-order core
// times.  This makes the simulator execution-driven in the sense that
// matters for prefetching research: hardware prefetch engines can chase
// real pointers through the memory image, exactly as the paper's DBP and
// JPP hardware does.
package ir

// Class identifies the functional class of an instruction.  Classes map
// one-to-one onto the functional units of the simulated machine
// (paper Table 2).
type Class uint8

// Instruction classes.
const (
	Nop Class = iota
	// IntAlu covers single-cycle integer operations, address arithmetic
	// and compares.
	IntAlu
	// IntMult is the 3-cycle integer multiplier.
	IntMult
	// IntDiv is the 20-cycle integer divider.
	IntDiv
	// FpAdd is the 2-cycle floating point adder.
	FpAdd
	// FpMult is the 4-cycle floating point multiplier.
	FpMult
	// FpDiv is the 24-cycle floating point divider.
	FpDiv
	// Load is a binding memory read.
	Load
	// Store is a memory write.
	Store
	// Prefetch is a non-binding software prefetch: it occupies a memory
	// port for a cycle, completes on issue, may initiate TLB miss
	// handling, and never faults (paper Table 2).
	Prefetch
	// Branch is a conditional branch.
	Branch
	// Jump covers unconditional jumps, calls and returns.
	Jump
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case Nop:
		return "nop"
	case IntAlu:
		return "ialu"
	case IntMult:
		return "imul"
	case IntDiv:
		return "idiv"
	case FpAdd:
		return "fadd"
	case FpMult:
		return "fmul"
	case FpDiv:
		return "fdiv"
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "pref"
	case Branch:
		return "branch"
	case Jump:
		return "jump"
	}
	return "?"
}

// Flag carries per-instruction annotations.
type Flag uint8

const (
	// FLDS marks a load that traverses a linked data structure (a
	// pointer-chasing load).  Table 1's characterization separates LDS
	// load misses from array/stack/global misses using this tag.
	FLDS Flag = 1 << iota
	// FOverhead marks an instruction added by a prefetching
	// transformation (jump-pointer creation or prefetch code).  Figure 6
	// normalizes bandwidth by the count of *non*-overhead instructions,
	// and the costs table reports overhead instruction shares.
	FOverhead
	// FJumpChase marks a cooperative jump-pointer prefetch: a single
	// non-binding load of a jump-pointer word.  When it completes, the
	// hardware reads the pointer it fetched and launches a prefetch of
	// the target node, which may in turn spawn chained prefetches
	// through the dependence predictor (paper §3.2).
	FJumpChase
	// FReturn marks a Jump that is a procedure return (predicted
	// perfectly, standing in for a return address stack).
	FReturn
	// FCall marks a Jump that is a procedure call.
	FCall
)

// MemBase/MemStack carve the simulated address space.  Code lives at
// CodeBase (PCs), the heap at heap.Base, and the stack grows down from
// StackBase.
const (
	// CodeBase is the base address of simulated program text.
	CodeBase uint32 = 0x0040_0000
	// StackBase is the initial stack pointer.
	StackBase uint32 = 0xE000_0000
	// GlobalBase is the base of the static data area.
	GlobalBase uint32 = 0x0800_0000
)

// DynInst is one dynamic instruction.  Instances are reused batch by
// batch; consumers must not retain pointers across Gen.Next calls.
type DynInst struct {
	// Seq is the global dynamic sequence number, starting at 1.
	Seq uint64
	// Src1 and Src2 are the sequence numbers of the producing
	// instructions of this instruction's register inputs; zero means the
	// operand is a constant or long-retired value that is always ready.
	Src1, Src2 uint64

	// PC is the static instruction address.
	PC uint32
	// Addr is the effective address for Load/Store/Prefetch.
	Addr uint32
	// Value is the loaded value (Load), stored value (Store), or zero.
	Value uint32
	// BaseValue is the value of the address base register for memory
	// operations.  The dependence predictor's potential-producer window
	// matches on it.
	BaseValue uint32
	// Target is the branch/jump target PC.
	Target uint32

	Class Class
	Flags Flag
	// Taken is the actual outcome of a Branch.
	Taken bool
}
