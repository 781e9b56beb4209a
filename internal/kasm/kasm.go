// Package kasm is the kernel assembler: the code-generation front half of
// our nvcc stand-in. Workload kernels (internal/workloads) are written
// against its Builder using virtual registers, labels and source-line
// attachment; internal/codegen then allocates physical registers (spilling
// to local memory under pressure, exactly like -maxrregcount) and produces
// a finished sass.Kernel.
//
// The IR is architecture-neutral: a Program carries no target-specific
// instruction selection. Per-architecture lowering (e.g. fusing LDG+STS
// pairs into cp.async-style LDGSTS on sm_80) happens inside
// internal/codegen, driven by the gpu.Arch descriptor passed in
// codegen.Options — see DESIGN.md §12.
package kasm

import (
	"fmt"

	"gpuscout/internal/sass"
)

// VReg identifies a virtual register. Virtual registers are typed by
// width: 1 word (32-bit int/float), 2 words (64-bit address/double), or
// 4 words (128-bit vector). Wide vregs are allocated to aligned,
// contiguous physical register groups.
type VReg int32

// NoVReg is the zero-value "no register" sentinel.
const NoVReg VReg = -1

// VOperandKind discriminates VOperand.
type VOperandKind uint8

const (
	VOpdNone VOperandKind = iota
	VOpdReg               // virtual register (with optional word element)
	VOpdZero              // RZ
	VOpdImm
	VOpdMem   // [vreg-pair + offset]; base NoVReg means [RZ+offset]
	VOpdConst // c[bank][off]
	VOpdPred
	VOpdSpecial
)

// VOperand is an operand referring to virtual registers.
type VOperand struct {
	Kind    VOperandKind
	V       VReg // VOpdReg / VOpdMem base
	Elem    int  // word offset into a wide vreg (VOpdReg)
	Neg     bool // fp negation (VOpdReg) or predicate negation (VOpdPred)
	Imm     int64
	Bank    int
	Pred    sass.Pred
	Special sass.SpecialReg
}

// Operands hands out copies of operand lists cut from shared chunks: one
// allocation per chunk, not per list. A copy's capacity is its length,
// so an append to one list copies it instead of overwriting the next.
type Operands struct{ chunk []VOperand }

// Copy returns a copy of o (nil when o is empty).
func (s *Operands) Copy(o []VOperand) []VOperand {
	if len(o) == 0 {
		return nil
	}
	if cap(s.chunk)-len(s.chunk) < len(o) {
		s.chunk = make([]VOperand, 0, max(256, len(o)))
	}
	s.chunk = append(s.chunk, o...)
	return s.chunk[len(s.chunk)-len(o) : len(s.chunk) : len(s.chunk)]
}

// VR makes a virtual-register operand.
func VR(v VReg) VOperand { return VOperand{Kind: VOpdReg, V: v} }

// VRElem refers to word e of a wide virtual register.
func VRElem(v VReg, e int) VOperand { return VOperand{Kind: VOpdReg, V: v, Elem: e} }

// VZero is the RZ operand.
func VZero() VOperand { return VOperand{Kind: VOpdZero} }

// VImm makes an immediate operand.
func VImm(v int64) VOperand { return VOperand{Kind: VOpdImm, Imm: v} }

// VMem makes a [base+off] operand; base must be a 2-word vreg, or NoVReg
// for absolute (thread-local) addressing.
func VMem(base VReg, off int64) VOperand { return VOperand{Kind: VOpdMem, V: base, Imm: off} }

// VConst makes a c[bank][off] operand.
func VConst(bank int, off int64) VOperand { return VOperand{Kind: VOpdConst, Bank: bank, Imm: off} }

// VPred makes a predicate operand.
func VPred(p sass.Pred, neg bool) VOperand { return VOperand{Kind: VOpdPred, Pred: p, Neg: neg} }

// VSR makes a special-register operand.
func VSR(s sass.SpecialReg) VOperand { return VOperand{Kind: VOpdSpecial, Special: s} }

// VInst is one instruction over virtual registers.
type VInst struct {
	Op      sass.Opcode
	Mods    []string
	Pred    sass.Pred // guard; PT = unconditional
	PredNeg bool
	Dst     []VOperand
	Src     []VOperand
	Line    int
	Label   string // branch target label (OpBRA)
}

// Program is a finished virtual-register kernel, ready for codegen.
type Program struct {
	Name       string
	Arch       string
	SourceFile string
	Source     []string
	Insts      []VInst
	Labels     map[string]int // label -> instruction index
	NumVRegs   int
	Widths     []uint8 // width (words) per vreg
	ShmemBytes int     // static shared memory per block
	NumParams  int     // 8-byte parameter slots
}

// ConstBytes returns the size of the kernel's constant parameter area.
func (p *Program) ConstBytes() int { return sass.ParamBase + 8*p.NumParams }

// WidthOf returns the word width of a vreg.
func (p *Program) WidthOf(v VReg) int {
	if v == NoVReg {
		return 0
	}
	return int(p.Widths[v])
}

// Validate checks structural invariants of the program.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("kasm: program has no name")
	}
	if len(p.Insts) == 0 {
		return fmt.Errorf("kasm: program %s is empty", p.Name)
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op == sass.OpBRA {
			if _, ok := p.Labels[in.Label]; !ok {
				return fmt.Errorf("kasm: %s inst %d branches to undefined label %q", p.Name, i, in.Label)
			}
		}
		check := func(o VOperand, isDst bool) error {
			if (o.Kind != VOpdReg && o.Kind != VOpdMem) || o.V == NoVReg {
				return nil
			}
			if int(o.V) >= p.NumVRegs {
				return fmt.Errorf("kasm: %s inst %d references undefined vreg %d", p.Name, i, o.V)
			}
			if o.Kind == VOpdReg && o.Elem >= int(p.Widths[o.V]) {
				return fmt.Errorf("kasm: %s inst %d elem %d out of range for v%d (width %d)",
					p.Name, i, o.Elem, o.V, p.Widths[o.V])
			}
			if o.Kind == VOpdMem {
				// Global-space addresses are 64-bit pairs; shared and
				// local addresses are 32-bit segment offsets. LDGSTS is the
				// one dual-space instruction: its destination is a shared
				// address, its source a global address.
				wantPair := in.Op == sass.OpLDG || in.Op == sass.OpSTG ||
					in.Op == sass.OpATOM || in.Op == sass.OpRED ||
					(in.Op == sass.OpLDGSTS && !isDst)
				if wantPair && p.Widths[o.V] != 2 {
					return fmt.Errorf("kasm: %s inst %d global memory base v%d is not a 64-bit pair", p.Name, i, o.V)
				}
				if !wantPair && p.Widths[o.V] != 1 {
					return fmt.Errorf("kasm: %s inst %d shared/local memory base v%d must be 32-bit", p.Name, i, o.V)
				}
			}
			return nil
		}
		for _, o := range in.Dst {
			if err := check(o, true); err != nil {
				return err
			}
		}
		for _, o := range in.Src {
			if err := check(o, false); err != nil {
				return err
			}
		}
	}
	if p.Insts[len(p.Insts)-1].Op != sass.OpEXIT {
		return fmt.Errorf("kasm: program %s does not end with EXIT", p.Name)
	}
	return nil
}
