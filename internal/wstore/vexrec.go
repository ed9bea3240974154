package wstore

import (
	"fmt"
	"os"

	"vexsmt/internal/asm"
	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
	"vexsmt/internal/vexmach"
)

// vexMaxSteps caps functional execution of a loaded VEX program. Workload
// programs are kernels, not applications; a million executed instructions
// is far beyond anything the assembler's immediate-driven loops express,
// so hitting the cap means a runaway (non-terminating) program.
const vexMaxSteps = 1 << 20

// vexBase is where loaded programs are linked, matching cmd/vexasm.
const vexBase = 0x1000

// recordVEX assembles src for the paper's 4-cluster machine, executes it
// once on the functional model, and records the executed instruction
// stream as trace records: per-cluster resource demands from the static
// bundles, taken/branch flags from the observed control flow, and memory
// addresses from the architectural registers at issue time. The recording
// is purely deterministic — same source bytes, same trace.
func recordVEX(src []byte) (trace.Records, error) {
	geom := isa.ST200x4
	prog, err := asm.Assemble(geom, vexBase, string(src))
	if err != nil {
		return trace.Records{}, err
	}
	if len(prog.Instrs) == 0 {
		return trace.Records{}, fmt.Errorf("program has no instructions")
	}
	m := vexmach.MustNew(geom)
	m.SetPC(prog.Base)

	instrs := make([]synth.TInst, 0, len(prog.Instrs))
	for steps := 0; ; steps++ {
		idx, ok := prog.IndexOf(m.PC())
		if !ok {
			break // fell off the program: halt
		}
		if steps >= vexMaxSteps {
			return trace.Records{}, fmt.Errorf("program did not halt within %d steps", vexMaxSteps)
		}
		in := prog.Instrs[idx]
		var ti synth.TInst
		ti.Demand = isa.DemandOf(in)
		ti.PC = in.Addr
		ti.Size = in.Size
		fillMemAddrs(&ti, m, in, geom.Clusters)
		isBranch := hasBranch(in)
		if err := m.Exec(in); err != nil {
			return trace.Records{}, fmt.Errorf("pc=0x%x: %w", in.Addr, err)
		}
		ti.Taken = isBranch && m.PC() != in.Addr+uint64(in.Size)
		ti.IsBranch = isBranch
		instrs = append(instrs, ti)
	}
	if len(instrs) == 0 {
		return trace.Records{}, fmt.Errorf("program executed no instructions")
	}
	return trace.Encode(geom.Clusters, instrs)
}

// fillMemAddrs records the effective address of each cluster's memory
// operation, computed exactly as the functional model will (base register
// plus offset, truncated to 32 bits), before the instruction commits.
func fillMemAddrs(ti *synth.TInst, m *vexmach.Machine, in *isa.Instruction, clusters int) {
	for c := 0; c < clusters; c++ {
		if ti.Demand.B[c].Mem == 0 {
			continue
		}
		for i := range in.Bundles[c] {
			op := &in.Bundles[c][i]
			if op.Op == isa.Ldw || op.Op == isa.Stw {
				ti.MemAddr[c] = uint64(uint32(m.Reg(c, op.Src1) + op.Imm))
				break
			}
		}
	}
}

// hasBranch reports whether the instruction contains a control-flow
// operation. Gotos count: the generator marks every control-transfer
// template as a branch, and the front-end models (static penalty vs
// modeled predictor) key off IsBranch, so an unconditional jump must be
// visible to both the same way.
func hasBranch(in *isa.Instruction) bool {
	for c := range in.Bundles {
		for i := range in.Bundles[c] {
			switch in.Bundles[c][i].Op {
			case isa.Br, isa.Brf, isa.Goto:
				return true
			}
		}
	}
	return false
}

func readFallback(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}
