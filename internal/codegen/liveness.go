// Package codegen lowers a kasm.Program (virtual registers) to a finished
// sass.Kernel: it computes virtual-register liveness, runs a linear-scan
// register allocator with spill-everywhere spilling to local memory
// (STL/LDL — the traffic §4.2 of the paper detects), assigns Volta-style
// scoreboard control info, and resolves labels to branch-target PCs.
package codegen

import (
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// defsUses extracts the virtual registers written and read by in.
// fullDef reports whether the write covers the whole vreg (a partial
// element write both reads and writes it).
func defsUses(p *kasm.Program, in *kasm.VInst) (defs []kasm.VReg, fullDef bool, uses []kasm.VReg) {
	fullDef = true
	written, _, _ := sass.OperandWords(in.Op, in.Mods)
	for _, o := range in.Dst {
		switch o.Kind {
		case kasm.VOpdReg:
			if o.V == kasm.NoVReg {
				continue
			}
			defs = append(defs, o.V)
			if o.Elem != 0 || written < p.WidthOf(o.V) {
				fullDef = false
				uses = append(uses, o.V)
			}
		case kasm.VOpdMem:
			if o.V != kasm.NoVReg {
				uses = append(uses, o.V) // store/atomic address
			}
		}
	}
	for _, o := range in.Src {
		switch o.Kind {
		case kasm.VOpdReg, kasm.VOpdMem:
			if o.V != kasm.NoVReg {
				uses = append(uses, o.V)
			}
		}
	}
	return defs, fullDef, uses
}

// computeVLiveness returns, for each instruction index, the set of
// virtual registers live immediately after it: sass.LiveOut over the
// instructions, with sass.Succs over labels and branches and defsUses as
// the transfer. A partial element write keeps the vreg live.
func computeVLiveness(p *kasm.Program) [][]uint64 {
	n := len(p.Insts)
	succs := func(i int, buf []int) []int {
		in := &p.Insts[i]
		return sass.Succs(buf, in.Op, in.Pred != sass.PT, i, p.Labels[in.Label], n)
	}
	transfer := func(i int, live []uint64) {
		defs, fullDef, uses := defsUses(p, &p.Insts[i])
		if fullDef {
			for _, d := range defs {
				live[d/64] &^= 1 << (d % 64)
			}
		}
		for _, u := range uses {
			live[u/64] |= 1 << (u % 64)
		}
	}
	return sass.LiveOut(n, p.NumVRegs, succs, transfer)
}
