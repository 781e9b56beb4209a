// Package codegen lowers a kasm.Program (virtual registers) to a finished
// sass.Kernel: it computes virtual-register liveness, runs a linear-scan
// register allocator with spill-everywhere spilling to local memory
// (STL/LDL — the traffic §4.2 of the paper detects), assigns Volta-style
// scoreboard control info, and resolves labels to branch-target PCs.
package codegen

import (
	"slices"

	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// defUse is one allocation round's def/use table: for each instruction,
// the vregs it writes and reads, and whether its write covers the whole
// vreg (a partial element write both reads and writes it). It is flat:
// instruction i's defs are defs[defOff[i]:defOff[i+1]], its uses
// likewise. Liveness visits an instruction once per fixpoint pass and
// buildIntervals once more, so the table is built once per round and
// read by both; rewrite changes the program, so a spill round rebuilds
// it (into the same buffers).
type defUse struct {
	defs, uses     []kasm.VReg
	defOff, useOff []int32
	full           []bool
}

func (du *defUse) compute(p *kasm.Program) {
	n := len(p.Insts) // about one def and two uses each
	du.defs = slices.Grow(du.defs[:0], n)
	du.uses = slices.Grow(du.uses[:0], 2*n)
	du.defOff = append(slices.Grow(du.defOff[:0], n+1), 0)
	du.useOff = append(slices.Grow(du.useOff[:0], n+1), 0)
	du.full = slices.Grow(du.full[:0], n)
	for i := range p.Insts {
		in := &p.Insts[i]
		full := true
		written, _, _ := sass.OperandWords(in.Op, in.Mods)
		for _, o := range in.Dst {
			switch o.Kind {
			case kasm.VOpdReg:
				if o.V == kasm.NoVReg {
					continue
				}
				du.defs = append(du.defs, o.V)
				if o.Elem != 0 || written < p.WidthOf(o.V) {
					full = false
					du.uses = append(du.uses, o.V)
				}
			case kasm.VOpdMem:
				if o.V != kasm.NoVReg {
					du.uses = append(du.uses, o.V) // store/atomic address
				}
			}
		}
		for _, o := range in.Src {
			switch o.Kind {
			case kasm.VOpdReg, kasm.VOpdMem:
				if o.V != kasm.NoVReg {
					du.uses = append(du.uses, o.V)
				}
			}
		}
		du.defOff = append(du.defOff, int32(len(du.defs)))
		du.useOff = append(du.useOff, int32(len(du.uses)))
		du.full = append(du.full, full)
	}
}

func (du *defUse) defsOf(i int) []kasm.VReg { return du.defs[du.defOff[i]:du.defOff[i+1]] }
func (du *defUse) usesOf(i int) []kasm.VReg { return du.uses[du.useOff[i]:du.useOff[i+1]] }

// computeVLiveness returns, for each instruction index, the set of
// virtual registers live immediately after it: sass.LiveOut over the
// instructions, with sass.Succs over labels and branches and the round's
// def/use table as the transfer. A partial element write keeps the vreg
// live.
func computeVLiveness(p *kasm.Program, du *defUse) [][]uint64 {
	n := len(p.Insts)
	succs := func(i int, buf []int) []int {
		in := &p.Insts[i]
		target := 0
		if in.Op == sass.OpBRA {
			target = p.Labels[in.Label]
		}
		return sass.Succs(buf, in.Op, in.Pred != sass.PT, i, target, n)
	}
	transfer := func(i int, live []uint64) {
		if du.full[i] {
			for _, d := range du.defsOf(i) {
				live[d/64] &^= 1 << (d % 64)
			}
		}
		for _, u := range du.usesOf(i) {
			live[u/64] |= 1 << (u % 64)
		}
	}
	return sass.LiveOut(n, p.NumVRegs, succs, transfer)
}
