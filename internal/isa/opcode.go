// Package isa defines the VEX-like instruction set architecture used by the
// reproduction: a 32-bit clustered integer VLIW modeled on the HP/ST ST200
// family, as described in Section IV of the paper. An *operation* is the
// basic execution unit; the operations scheduled on one cluster in one cycle
// form a *bundle*; the set of bundles forms the VLIW *instruction* (the
// paper borrows this terminology from the Lx architecture).
package isa

import "fmt"

// Class identifies the functional-unit class an operation executes on.
type Class uint8

const (
	// ClassALU operations execute on one of the per-cluster ALUs.
	ClassALU Class = iota
	// ClassMul operations execute on one of the per-cluster multipliers.
	ClassMul
	// ClassMem operations execute on the per-cluster load/store unit.
	ClassMem
	// ClassBranch operations are the control-flow half of VEX two-phase
	// branches. They execute on the cluster's branch capability, which in
	// this model occupies an ALU slot (VEX branch FUs read branch registers
	// set by earlier compare operations).
	ClassBranch
	// ClassComm operations are the explicit inter-cluster copies (send and
	// recv). They occupy an issue slot and an ALU in their cluster and use
	// the inter-cluster communication network.
	ClassComm

	numClasses
)

// String returns a short human-readable class name.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassMem:
		return "mem"
	case ClassBranch:
		return "br"
	case ClassComm:
		return "comm"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Opcode enumerates the operations of the VEX-like ISA.
type Opcode uint8

const (
	// Nop does nothing. Empty issue slots are represented by absent
	// operations, not by Nop; Nop exists for explicitly scheduled no-ops.
	Nop Opcode = iota

	// Integer ALU operations (single-cycle).
	Add // Dest = Src1 + Src2/Imm
	Sub // Dest = Src1 - Src2/Imm
	Shl // Dest = Src1 << Src2/Imm
	Shr // Dest = Src1 >> Src2/Imm (arithmetic)
	And // Dest = Src1 & Src2/Imm
	Or  // Dest = Src1 | Src2/Imm
	Xor // Dest = Src1 ^ Src2/Imm
	Mov // Dest = Src1 (or Imm with UseImm)
	Max // Dest = max(Src1, Src2/Imm)
	Min // Dest = min(Src1, Src2/Imm)

	// Compare operations: write a branch register (single-cycle, ALU).
	CmpEQ // BDest = (Src1 == Src2/Imm)
	CmpNE // BDest = (Src1 != Src2/Imm)
	CmpLT // BDest = (Src1 < Src2/Imm), signed
	CmpGE // BDest = (Src1 >= Src2/Imm), signed

	// Multiplier operations (2-cycle latency).
	Mpy   // Dest = Src1 * Src2/Imm (low 32 bits)
	MpyH  // Dest = high 32 bits of Src1 * Src2/Imm
	MpySh // Dest = (Src1 * Src2/Imm) >> 16, a typical DSP fixed-point multiply

	// Memory operations (2-cycle latency, 1 load/store unit per cluster).
	Ldw // Dest = mem32[Src1 + Imm]
	Stw // mem32[Src1 + Imm] = Src2

	// Control flow. VEX branches are two-phase: a compare sets a branch
	// register at least 2 cycles ahead, then Br/Brf consumes it. Taken
	// branches pay a 1-cycle penalty (no branch predictor; fall-through is
	// the predicted path).
	Br   // if BSrc is true, jump to Target
	Brf  // if BSrc is false, jump to Target
	Goto // unconditional jump to Target

	// Inter-cluster communication (Section V-E). Send reads Src1 from its
	// cluster's register file and puts it on the network addressed to
	// cluster Target; Recv reads the network value sent from cluster Target
	// and writes it to Dest. VEX semantics require the pair to issue in the
	// same cycle; split-issue relaxes this with buffering.
	Send
	Recv

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	Nop: "nop", Add: "add", Sub: "sub", Shl: "shl", Shr: "shr",
	And: "and", Or: "or", Xor: "xor", Mov: "mov", Max: "max", Min: "min",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpGE: "cmpge",
	Mpy: "mpy", MpyH: "mpyh", MpySh: "mpysh",
	Ldw: "ldw", Stw: "stw",
	Br: "br", Brf: "brf", Goto: "goto",
	Send: "send", Recv: "recv",
}

// String returns the assembler mnemonic of the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

var opcodeClasses = [numOpcodes]Class{
	Nop: ClassALU, Add: ClassALU, Sub: ClassALU, Shl: ClassALU, Shr: ClassALU,
	And: ClassALU, Or: ClassALU, Xor: ClassALU, Mov: ClassALU,
	Max: ClassALU, Min: ClassALU,
	CmpEQ: ClassALU, CmpNE: ClassALU, CmpLT: ClassALU, CmpGE: ClassALU,
	Mpy: ClassMul, MpyH: ClassMul, MpySh: ClassMul,
	Ldw: ClassMem, Stw: ClassMem,
	Br: ClassBranch, Brf: ClassBranch, Goto: ClassBranch,
	Send: ClassComm, Recv: ClassComm,
}

// ClassOf returns the functional-unit class of an opcode.
func ClassOf(o Opcode) Class {
	if int(o) < len(opcodeClasses) {
		return opcodeClasses[o]
	}
	return ClassALU
}

// Latency returns the architectural latency in cycles exposed to the
// compiler: 2 for multiply and memory operations, 1 for everything else
// (Section IV). VEX is a less-than-or-equal machine: hardware may finish
// sooner, and memory may take longer, in which case execution stalls.
func Latency(o Opcode) int {
	switch ClassOf(o) {
	case ClassMul, ClassMem:
		return 2
	default:
		return 1
	}
}

// IsBranch reports whether the opcode changes control flow.
func IsBranch(o Opcode) bool { return ClassOf(o) == ClassBranch }

// IsComm reports whether the opcode is an inter-cluster copy.
func IsComm(o Opcode) bool { return ClassOf(o) == ClassComm }

// WritesGPR reports whether the opcode writes a general-purpose register.
func WritesGPR(o Opcode) bool {
	switch o {
	case Nop, CmpEQ, CmpNE, CmpLT, CmpGE, Stw, Br, Brf, Goto, Send:
		return false
	default:
		return true
	}
}

// ParseOpcode returns the opcode for an assembler mnemonic.
func ParseOpcode(name string) (Opcode, bool) {
	for op, n := range opcodeNames {
		if n == name {
			return Opcode(op), true
		}
	}
	return Nop, false
}
