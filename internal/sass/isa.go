// Package sass models a Volta-class NVIDIA SASS instruction set: the
// machine code GPUscout's static analysis pillar operates on.
//
// The package provides the instruction representation, an nvdisasm-style
// text parser and printer, control-flow analysis (basic blocks, dominators,
// natural loops), register liveness/pressure, and def-use chains. These are
// the primitives every bottleneck detector in internal/scout builds on.
package sass

import "fmt"

// InstBytes is the encoded size of one instruction. Volta and newer
// architectures use 128-bit (16-byte) instruction words, so program
// counters advance in steps of 0x10.
const InstBytes = 0x10

// Reg names a 32-bit general-purpose register. R0..R254 are allocatable;
// RZ (255) reads as zero and discards writes. 64-bit quantities (addresses,
// doubles) occupy aligned register pairs (Rn, Rn+1).
type Reg uint16

// RZ is the zero register.
const RZ Reg = 255

// NumArchRegs is the number of allocatable architectural registers per
// thread (R0..R254).
const NumArchRegs = 255

func (r Reg) String() string { return string(r.appendText(make([]byte, 0, 8))) }

// IsZ reports whether the register is the zero register.
func (r Reg) IsZ() bool { return r == RZ }

// Pred names a 1-bit predicate register. P0..P6 are allocatable; PT (7)
// is always true.
type Pred uint8

// PT is the always-true predicate.
const PT Pred = 7

// NumPreds is the number of allocatable predicate registers per thread.
const NumPreds = 7

func (p Pred) String() string { return string(p.appendText(make([]byte, 0, 8))) }

// Opcode identifies the base operation of an instruction. Variants
// (width, cache policy, comparison op, conversion types, ...) are carried
// as dot-separated modifiers, mirroring nvdisasm output such as
// "LDG.E.128.SYS" or "ISETP.GE.AND".
type Opcode uint8

// Supported opcodes. The set covers everything GPUscout's detectors look
// for (global/local/shared/texture/atomic memory traffic, conversions)
// plus the arithmetic and control instructions needed to express the
// paper's case-study kernels.
const (
	OpInvalid Opcode = iota

	// Memory.
	OpLDG  // load from global memory
	OpSTG  // store to global memory
	OpLDS  // load from shared memory
	OpSTS  // store to shared memory
	OpLDL  // load from local memory (register spill reload)
	OpSTL  // store to local memory (register spill)
	OpLDC  // load from constant bank (kernel parameters)
	OpTEX  // texture fetch
	OpATOM // atomic on global memory
	OpATOMS
	OpRED // reduction (atomic without return) on global memory
	OpMEMBAR

	// 32-bit float.
	OpFADD
	OpFMUL
	OpFFMA
	OpFMNMX
	OpFSETP
	OpMUFU // multi-function unit: RCP, RSQ, SQRT, ...

	// 64-bit float (register pairs).
	OpDADD
	OpDMUL
	OpDFMA
	OpDSETP

	// Integer.
	OpIADD3
	OpIMAD // integer multiply-add; .WIDE form produces a 64-bit pair
	OpISETP
	OpLOP3 // logic op; we use .AND/.OR/.XOR convenience modifiers
	OpSHF  // funnel shift
	OpSEL
	OpIMNMX
	OpIABS
	OpPOPC

	// Conversions (the §4.7 detector counts these).
	OpI2F
	OpF2I
	OpF2F
	OpI2I

	// Data movement.
	OpMOV
	OpS2R  // read special register (tid, ctaid, ...)
	OpSHFL // warp shuffle
	OpPRMT

	// Control.
	OpBRA
	OpEXIT
	OpBAR
	OpNOP
	OpRET

	// Async copy (sm_80+): global→shared transfer that bypasses the
	// register file and L1, the SASS form of cp.async. Appended after the
	// original set so existing opcode values stay stable.
	OpLDGSTS

	opMax
)

// NumOpcodes is the number of opcode values (including OpInvalid); dense
// per-opcode tables index by Opcode below this bound.
const NumOpcodes = int(opMax)

// Kind bits of an opcode's row.
const (
	kLoad   uint8 = 1 << iota // reads memory into registers
	kStore                    // writes registers to memory
	kAtomic                   // read-modify-write on memory (ATOM, ATOMS, RED)
	kConv                     // datatype conversion
	kArith                    // arithmetic on register values
	kFloat                    // reads its value sources as floating point
)

// opInfo is one opcode's row of the ISA table.
type opInfo struct {
	name  string
	class Class
	dsts  uint8 // leading operands that are destinations
	kind  uint8
}

// opTable is the one place an opcode's facts are written: its mnemonic,
// the pipe that executes it, how many leading operands are destinations
// (a store's or RED's memory operand, LDGSTS's shared destination, ATOM's
// return register and address, SETP's predicate pair), and its kind.
// ClassOf, IsLoad, IsStore, IsAtomic, IsConversion, IsArith, IsFloat,
// the parser and the printer all read it.
var opTable = [NumOpcodes]opInfo{
	OpInvalid: {"<invalid>", ClassALU, 1, 0},
	OpLDG:     {"LDG", ClassGlobal, 1, kLoad},
	OpSTG:     {"STG", ClassGlobal, 1, kStore},
	OpLDS:     {"LDS", ClassShared, 1, kLoad},
	OpSTS:     {"STS", ClassShared, 1, kStore},
	OpLDL:     {"LDL", ClassLocal, 1, kLoad},
	OpSTL:     {"STL", ClassLocal, 1, kStore},
	OpLDC:     {"LDC", ClassConst, 1, kLoad},
	OpTEX:     {"TEX", ClassTexture, 1, kLoad},
	OpATOM:    {"ATOM", ClassGlobal, 2, kAtomic},
	OpATOMS:   {"ATOMS", ClassShared, 2, kAtomic},
	OpRED:     {"RED", ClassGlobal, 1, kAtomic},
	OpMEMBAR:  {"MEMBAR", ClassControl, 0, 0},
	OpFADD:    {"FADD", ClassALU, 1, kArith | kFloat},
	OpFMUL:    {"FMUL", ClassALU, 1, kArith | kFloat},
	OpFFMA:    {"FFMA", ClassALU, 1, kArith | kFloat},
	OpFMNMX:   {"FMNMX", ClassALU, 1, kArith | kFloat},
	OpFSETP:   {"FSETP", ClassALU, 2, kFloat},
	OpMUFU:    {"MUFU", ClassSFU, 1, kArith | kFloat},
	OpDADD:    {"DADD", ClassFP64, 1, kArith | kFloat},
	OpDMUL:    {"DMUL", ClassFP64, 1, kArith | kFloat},
	OpDFMA:    {"DFMA", ClassFP64, 1, kArith | kFloat},
	OpDSETP:   {"DSETP", ClassFP64, 2, kFloat},
	OpIADD3:   {"IADD3", ClassALU, 1, kArith},
	OpIMAD:    {"IMAD", ClassALU, 1, kArith},
	OpISETP:   {"ISETP", ClassALU, 2, 0},
	OpLOP3:    {"LOP3", ClassALU, 1, kArith},
	OpSHF:     {"SHF", ClassALU, 1, kArith},
	OpSEL:     {"SEL", ClassALU, 1, kArith},
	OpIMNMX:   {"IMNMX", ClassALU, 1, kArith},
	OpIABS:    {"IABS", ClassALU, 1, kArith},
	OpPOPC:    {"POPC", ClassALU, 1, kArith},
	OpI2F:     {"I2F", ClassALU, 1, kConv},
	OpF2I:     {"F2I", ClassALU, 1, kConv | kFloat},
	OpF2F:     {"F2F", ClassALU, 1, kConv | kFloat},
	OpI2I:     {"I2I", ClassALU, 1, kConv},
	OpMOV:     {"MOV", ClassALU, 1, 0},
	OpS2R:     {"S2R", ClassALU, 1, 0},
	OpSHFL:    {"SHFL", ClassALU, 1, 0},
	OpPRMT:    {"PRMT", ClassALU, 1, 0},
	OpBRA:     {"BRA", ClassControl, 0, 0},
	OpEXIT:    {"EXIT", ClassControl, 0, 0},
	OpBAR:     {"BAR", ClassControl, 0, 0},
	OpNOP:     {"NOP", ClassControl, 0, 0},
	OpRET:     {"RET", ClassControl, 0, 0},
	OpLDGSTS:  {"LDGSTS", ClassGlobal, 1, 0},
}

func (o Opcode) String() string {
	if int(o) < len(opTable) {
		return opTable[o].name
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// opByName is the reverse of the table's mnemonics, built at init.
var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opTable))
	for op := range opTable {
		if Opcode(op) != OpInvalid {
			m[opTable[op].name] = Opcode(op)
		}
	}
	return m
}()

// OpcodeByName resolves a base mnemonic ("LDG") to its Opcode.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opByName[name]
	return op, ok
}

// Class buckets opcodes by the pipeline that executes them; the simulator
// and the stall attribution logic key off this.
type Class uint8

const (
	ClassALU     Class = iota // fixed-latency integer/logic/fp32 pipe
	ClassFP64                 // fp64 pipe (lower throughput)
	ClassSFU                  // special function unit (MUFU)
	ClassGlobal               // L1TEX global path (LDG/STG/ATOM/RED/LDGSTS)
	ClassLocal                // L1TEX local path (LDL/STL)
	ClassShared               // MIO shared-memory path (LDS/STS/ATOMS)
	ClassTexture              // TEX path
	ClassConst                // constant cache
	ClassControl
)

var classNames = [...]string{"alu", "fp64", "sfu", "global", "local", "shared", "texture", "const", "control"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// IsMemory reports whether the class is a memory path: global, local,
// shared, texture or constant.
func (c Class) IsMemory() bool { return c >= ClassGlobal && c <= ClassConst }

// ClassOf returns the execution class of an opcode.
func ClassOf(op Opcode) Class { return opTable[op].class }

// IsLoad reports whether the opcode reads memory into registers.
func IsLoad(op Opcode) bool { return opTable[op].kind&kLoad != 0 }

// IsStore reports whether the opcode writes registers to memory.
func IsStore(op Opcode) bool { return opTable[op].kind&kStore != 0 }

// IsAtomic reports whether the opcode is a read-modify-write on memory:
// ATOM and ATOMS return the old value, RED does not.
func IsAtomic(op Opcode) bool { return opTable[op].kind&kAtomic != 0 }

// IsConversion reports whether the opcode is a datatype conversion
// (the §4.7 bottleneck class).
func IsConversion(op Opcode) bool { return opTable[op].kind&kConv != 0 }

// IsArith reports whether the opcode performs arithmetic on register
// values (used by the shared-memory detector to count compute uses).
func IsArith(op Opcode) bool { return opTable[op].kind&kArith != 0 }

// IsFloat reports whether the opcode reads its value sources as
// floating-point numbers, so a negated source flips its sign bit.
// Atomics are typed by modifier (.F32), not by opcode.
func IsFloat(op Opcode) bool { return opTable[op].kind&kFloat != 0 }

// BaseWords is the base-width rule of a memory operand of op: how many
// registers its base names. Global addresses are 64-bit pairs; the
// segment spaces (local, shared, constant, texture) index with one
// register, and so does LDGSTS's shared destination (dst: the operand is
// one of the instruction's destinations).
func BaseWords(op Opcode, dst bool) int {
	if ClassOf(op) == ClassGlobal && !(dst && op == OpLDGSTS) {
		return 2
	}
	return 1
}

// SpecialReg enumerates the special registers readable via S2R.
type SpecialReg uint8

const (
	SRInvalid SpecialReg = iota
	SRTidX
	SRTidY
	SRTidZ
	SRCtaidX
	SRCtaidY
	SRCtaidZ
	SRLaneID
	SRNTidX // blockDim.x
	SRNTidY
	SRNCtaidX // gridDim.x
	SRNCtaidY
)

var srNames = [...]string{
	SRInvalid: "SR_INVALID",
	SRTidX:    "SR_TID.X",
	SRTidY:    "SR_TID.Y",
	SRTidZ:    "SR_TID.Z",
	SRCtaidX:  "SR_CTAID.X",
	SRCtaidY:  "SR_CTAID.Y",
	SRCtaidZ:  "SR_CTAID.Z",
	SRLaneID:  "SR_LANEID",
	SRNTidX:   "SR_NTID.X",
	SRNTidY:   "SR_NTID.Y",
	SRNCtaidX: "SR_NCTAID.X",
	SRNCtaidY: "SR_NCTAID.Y",
}

func (s SpecialReg) String() string {
	if int(s) < len(srNames) {
		return srNames[s]
	}
	return fmt.Sprintf("SR_%d", uint8(s))
}

var srByName = func() map[string]SpecialReg {
	m := make(map[string]SpecialReg, len(srNames))
	for sr, name := range srNames {
		m[name] = SpecialReg(sr)
	}
	return m
}()

// SpecialRegByName resolves an "SR_*" token.
func SpecialRegByName(name string) (SpecialReg, bool) {
	sr, ok := srByName[name]
	return sr, ok
}
