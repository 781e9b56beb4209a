package sass

import "slices"

// DefUse indexes, per architectural register, where it is defined (written)
// and used (read). Several detectors rely on it:
//
//   - §4.2 register spilling asks "which instruction last wrote the spilled
//     register before the STL" to name the operation that caused the spill;
//   - §4.5 read-only cache asks whether a register (or the memory reachable
//     from a pointer register pair) is read-only throughout the kernel;
//   - §4.3 shared memory counts arithmetic uses of loaded registers.
type DefUse struct {
	Kernel *Kernel
	// Defs[r] / Uses[r] list instruction indices in program order.
	Defs [NumArchRegs][]int
	Uses [NumArchRegs][]int
}

// ComputeDefUse builds the def-use index for a kernel.
func ComputeDefUse(k *Kernel) *DefUse {
	du := &DefUse{Kernel: k}
	var scratch []Reg
	for i := range k.Insts {
		in := &k.Insts[i]
		for _, r := range in.DstRegs(scratch[:0]) {
			if r != RZ {
				du.Defs[r] = append(du.Defs[r], i)
			}
		}
		for _, r := range in.SrcRegs(scratch[:0]) {
			if r != RZ {
				du.Uses[r] = append(du.Uses[r], i)
			}
		}
	}
	return du
}

// LastDefBefore returns the index of the last instruction before index i
// (in program order) that writes register r, or -1. This is the paper's
// "the previous SASS instruction executed by the register" that is blamed
// for a spill (§3.2).
func (du *DefUse) LastDefBefore(r Reg, i int) int {
	if r == RZ {
		return -1
	}
	defs := du.Defs[r]
	last := -1
	for _, d := range defs {
		if d >= i {
			break
		}
		last = d
	}
	return last
}

// PointerStoredThroughAt reports whether any store or atomic instruction
// uses register pair (base, base+1) as its memory address — i.e. whether
// the pointer the load at loadIdx reads through is ever written through.
// Pointers never stored through are candidates for const __restrict__
// (§4.5) and for the texture path (§4.6). It is version-aware: physical
// registers are reused by the allocator, so a store through the same
// register only aliases the load's pointer when both see the same
// reaching definition of the base.
func (du *DefUse) PointerStoredThroughAt(base Reg, loadIdx int) bool {
	k := du.Kernel
	ver := du.LastDefBefore(base, loadIdx)
	for i := range k.Insts {
		in := &k.Insts[i]
		if !IsStore(in.Op) && !IsAtomic(in.Op) {
			continue
		}
		if m, ok := in.MemOperand(); ok && m.Reg == base &&
			du.LastDefBefore(base, i) == ver {
			return true
		}
	}
	return false
}

// UsesAfter returns the indices of the instructions that read the value
// register r holds after instruction i — its uses after i up to and
// including r's next redefinition, in program order. The slice aliases
// Uses[r]; do not modify it. Stalls surface at these consumers, so
// scout's stall correlation and attribution read them, as does
// ArithUseCountAt.
func (du *DefUse) UsesAfter(r Reg, i int) []int {
	if r == RZ {
		return nil
	}
	next := len(du.Kernel.Insts)
	for _, d := range du.Defs[r] {
		if d > i {
			next = d
			break
		}
	}
	uses := du.Uses[r]
	lo, _ := slices.BinarySearch(uses, i+1)
	hi, _ := slices.BinarySearch(uses, next+1)
	return uses[lo:hi]
}

// ArithUseCountAt returns how many arithmetic instructions read the value
// register r holds after its definition at defIdx (the Fig. 4 "arithmetic
// instruction count" on a loaded register): uses between defIdx and r's
// next redefinition, so a register the allocator later recycles for an
// unrelated value is not overcounted.
func (du *DefUse) ArithUseCountAt(r Reg, defIdx int) int {
	n := 0
	for _, u := range du.UsesAfter(r, defIdx) {
		if IsArith(du.Kernel.Insts[u].Op) {
			n++
		}
	}
	return n
}
