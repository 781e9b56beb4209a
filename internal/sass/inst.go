package sass

import (
	"slices"
	"strings"
)

// OperandKind discriminates the operand union in Operand.
type OperandKind uint8

const (
	OpdNone  OperandKind = iota
	OpdReg               // Rn / RZ
	OpdPred              // Pn / PT (optionally negated as a source)
	OpdImm               // integer or raw-bits immediate
	OpdMem               // [Rbase(+offset)] — base width per BaseWords
	OpdConst             // c[bank][offset]
	OpdSpecial
)

// Operand is one source or destination of an instruction.
type Operand struct {
	Kind    OperandKind
	Reg     Reg        // OpdReg; OpdMem base register (pair Reg,Reg+1 if global)
	Pred    Pred       // OpdPred
	Neg     bool       // OpdPred source negation (!P0); OpdReg fp negation (-R4)
	Imm     int64      // OpdImm value; OpdMem / OpdConst byte offset
	Bank    int        // OpdConst bank index
	Special SpecialReg // OpdSpecial
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Kind: OpdReg, Reg: r} }

// P makes a predicate operand.
func P(p Pred) Operand { return Operand{Kind: OpdPred, Pred: p} }

// Imm makes an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: OpdImm, Imm: v} }

// Mem makes a memory operand [base+off]; base names a 64-bit register
// pair in global space, one register in the segment spaces.
func Mem(base Reg, off int64) Operand { return Operand{Kind: OpdMem, Reg: base, Imm: off} }

// Const makes a constant-bank operand c[bank][off].
func Const(bank int, off int64) Operand { return Operand{Kind: OpdConst, Bank: bank, Imm: off} }

// SR makes a special-register operand.
func SR(s SpecialReg) Operand { return Operand{Kind: OpdSpecial, Special: s} }

func (o Operand) String() string { return string(o.appendText(make([]byte, 0, 48))) }

// Ctrl is the Volta-style per-instruction control information: compile-time
// scheduling hints that the hardware (and our simulator) obeys. Loads set a
// write scoreboard (WrBar); dependent instructions carry the slot in their
// WaitMask and cannot issue until the hardware releases it. Stall encodes a
// fixed issue-to-issue delay for in-pipe dependencies.
type Ctrl struct {
	Stall    uint8 // cycles the scheduler must wait after issuing this inst
	Yield    bool  // hint: deschedule this warp after issue
	WrBar    int8  // scoreboard slot set when this inst's result lands; -1 none
	RdBar    int8  // scoreboard slot set when operands have been read; -1 none
	WaitMask uint8 // bitmask of scoreboard slots that must be clear to issue
}

// NoBar is the "no scoreboard slot" sentinel for WrBar/RdBar.
const NoBar int8 = -1

// DefaultCtrl returns control info with no barriers and a 1-cycle stall.
func DefaultCtrl() Ctrl { return Ctrl{Stall: 1, WrBar: NoBar, RdBar: NoBar} }

// Inst is one decoded SASS instruction.
type Inst struct {
	PC      uint64 // byte offset within the kernel
	Pred    Pred   // guard predicate; PT = unconditional
	PredNeg bool   // guard is @!Pn
	Op      Opcode
	Mods    []string  // dot modifiers in order, e.g. ["E","128","SYS"]
	Dst     []Operand // destinations (registers and/or predicates)
	Src     []Operand // sources
	Ctrl    Ctrl
	Line    int    // source line (0 = unknown)
	File    string // source file name ("" = kernel's primary file)
	Target  uint64 // branch target PC (OpBRA)
}

// HasMod reports whether the instruction carries the given dot modifier.
func (in *Inst) HasMod(m string) bool { return slices.Contains(in.Mods, m) }

// Mnemonic returns the full dotted mnemonic, e.g. "LDG.E.128.SYS".
func (in *Inst) Mnemonic() string {
	if len(in.Mods) == 0 {
		return in.Op.String()
	}
	return in.Op.String() + "." + strings.Join(in.Mods, ".")
}

// WidthBytes returns the per-thread access width of a memory instruction
// in bytes: 4 by default, 8 with a ".64" modifier, 16 with ".128".
// Texture fetches return the texel size (4).
func (in *Inst) WidthBytes() int { return WidthBytes(in.Mods) }

// WidthBytes is the access-width rule over dot modifiers, the inverse of
// WidthMods: 16 with ".128", 8 with ".64", 4 otherwise.
func WidthBytes(mods []string) int {
	switch {
	case slices.Contains(mods, "128"):
		return 16
	case slices.Contains(mods, "64"):
		return 8
	default:
		return 4
	}
}

// WidthMods returns the dot modifiers that give a memory access a width
// of n bytes: none for 4, ".64" for 8, ".128" for 16. ok is false for
// any other width, which no SASS access has.
func WidthMods(n int) (mods []string, ok bool) {
	switch n {
	case 4:
		return nil, true
	case 8:
		return []string{"64"}, true
	case 16:
		return []string{"128"}, true
	}
	return nil, false
}

// IsVectorized reports whether a global load/store uses a 64- or 128-bit
// access (the §4.1 optimization target).
func (in *Inst) IsVectorized() bool { return in.HasMod("64") || in.HasMod("128") }

// IsNC reports whether a global load is routed through the read-only
// (non-coherent / texture) data cache — the compiled form of
// const __restrict__ pointers (§4.5).
func (in *Inst) IsNC() bool { return NC(in.Mods) }

// NC is the read-only rule over dot modifiers: ".NC" or ".CI".
func NC(mods []string) bool { return slices.Contains(mods, "NC") || slices.Contains(mods, "CI") }

// MemOperand returns the memory operand of a load/store and true, or a zero
// Operand and false when the instruction has none.
func (in *Inst) MemOperand() (Operand, bool) {
	for _, o := range in.Dst {
		if o.Kind == OpdMem {
			return o, true
		}
	}
	for _, o := range in.Src {
		if o.Kind == OpdMem {
			return o, true
		}
	}
	return Operand{}, false
}

// OperandWords is the width rule: how many consecutive 32-bit registers an
// instruction with this opcode and modifiers writes through each register
// destination (dst), reads through each register source (src), and reads
// through its final register source (last — IMAD.WIDE's 64-bit
// accumulator; src otherwise). Memory-operand bases follow BaseWords
// instead: a pair in global space, one register in the segment spaces.
func OperandWords(op Opcode, mods []string) (dst, src, last int) {
	dst, src = 1, 1
	switch c := ClassOf(op); {
	case c == ClassALU:
		switch op {
		case OpIMAD:
			if slices.Contains(mods, "WIDE") {
				return 2, 1, 2
			}
		case OpF2F, OpI2F, OpI2I:
			// Conversions name the destination type first: F2F.F64.F32
			// widens, F2F.F32.F64 narrows (its source is a pair).
			if len(mods) >= 1 && mods[0] == "F64" {
				dst = 2
			}
			if op == OpF2F && len(mods) >= 2 && mods[0] == "F32" && mods[1] == "F64" {
				src = 2
			}
		}
	case c == ClassFP64:
		dst, src = 2, 2
	case IsLoad(op):
		dst = WidthBytes(mods) / 4
	case IsStore(op):
		src = WidthBytes(mods) / 4
	case IsAtomic(op):
		dst = WidthBytes(mods) / 4
		src = dst
	}
	return dst, src, src
}

// DstRegs appends to out every architectural register written by the
// instruction, expanding register pairs/quads for wide operations, and
// returns the extended slice. RZ writes are skipped.
func (in *Inst) DstRegs(out []Reg) []Reg {
	wide, _, _ := OperandWords(in.Op, in.Mods)
	for _, o := range in.Dst {
		if o.Kind != OpdReg || o.Reg.IsZ() {
			continue
		}
		for i := 0; i < wide; i++ {
			out = append(out, o.Reg+Reg(i))
		}
	}
	return out
}

// SrcRegs appends to out every architectural register read by the
// instruction — including memory-operand bases (BaseWords) and the
// values stored by store instructions — and returns the extended slice.
// The guard predicate and predicate operands are not included.
func (in *Inst) SrcRegs(out []Reg) []Reg {
	addReg := func(r Reg, wide int) {
		if r.IsZ() {
			return
		}
		for i := 0; i < wide; i++ {
			out = append(out, r+Reg(i))
		}
	}
	_, srcWide, lastWide := OperandWords(in.Op, in.Mods)
	for i, o := range in.Src {
		switch o.Kind {
		case OpdReg:
			w := srcWide
			if i == len(in.Src)-1 {
				w = lastWide
			}
			addReg(o.Reg, w)
		case OpdMem:
			addReg(o.Reg, BaseWords(in.Op, false))
		}
	}
	// Memory destinations ([addr] of stores/atomics) read their base.
	for _, o := range in.Dst {
		if o.Kind == OpdMem {
			addReg(o.Reg, BaseWords(in.Op, true))
		}
	}
	return out
}

func (in *Inst) String() string { return string(in.appendText(make([]byte, 0, 96))) }
