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

// vliveness computes, for each instruction index, the set of virtual
// registers live immediately after it, via backward dataflow over the
// VInst control-flow graph.
type vliveness struct {
	liveOut []vset
}

type vset []uint64

func newVset(n int) vset { return make(vset, (n+63)/64) }

func (s vset) add(v kasm.VReg)    { s[v/64] |= 1 << (uint(v) % 64) }
func (s vset) remove(v kasm.VReg) { s[v/64] &^= 1 << (uint(v) % 64) }

func (s vset) clone() vset {
	c := make(vset, len(s))
	copy(c, s)
	return c
}

func (s vset) union(o vset) (changed bool) {
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

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

// computeVLiveness runs the dataflow. Successor structure comes from
// labels/branches; blocks are implicit (per-instruction granularity keeps
// the code simple and the programs are small).
func computeVLiveness(p *kasm.Program) *vliveness {
	n := len(p.Insts)
	nv := p.NumVRegs
	succs := make([][2]int, n) // up to 2 successors; -1 = none
	for i := range p.Insts {
		succs[i] = [2]int{-1, -1}
		in := &p.Insts[i]
		switch in.Op {
		case sass.OpBRA:
			succs[i][0] = p.Labels[in.Label]
			if in.Pred != sass.PT && i+1 < n {
				succs[i][1] = i + 1
			}
		case sass.OpEXIT, sass.OpRET:
			if in.Pred != sass.PT && i+1 < n {
				// Guarded EXIT falls through for the non-exiting threads.
				succs[i][0] = i + 1
			}
		default:
			if i+1 < n {
				succs[i][0] = i + 1
			}
		}
	}

	lv := &vliveness{liveOut: make([]vset, n)}
	liveIn := make([]vset, n)
	for i := 0; i < n; i++ {
		lv.liveOut[i] = newVset(nv)
		liveIn[i] = newVset(nv)
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := lv.liveOut[i]
			for _, s := range succs[i] {
				if s >= 0 {
					if out.union(liveIn[s]) {
						changed = true
					}
				}
			}
			in := out.clone()
			defs, fullDef, uses := defsUses(p, &p.Insts[i])
			if fullDef {
				for _, d := range defs {
					in.remove(d)
				}
			}
			for _, u := range uses {
				in.add(u)
			}
			if liveIn[i].union(in) {
				changed = true
			}
		}
	}
	return lv
}
