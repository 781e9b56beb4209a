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

func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", r)
}

// IsZ reports whether the register is the zero register.
func (r Reg) IsZ() bool { return r == RZ }

// Pred names a 1-bit predicate register. P0..P6 are allocatable; PT (7)
// is always true.
type Pred uint8

// PT is the always-true predicate.
const PT Pred = 7

// NumPreds is the number of allocatable predicate registers per thread.
const NumPreds = 7

func (p Pred) String() string {
	if p == PT {
		return "PT"
	}
	return fmt.Sprintf("P%d", p)
}

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

var opNames = [...]string{
	OpInvalid: "<invalid>",
	OpLDG:     "LDG",
	OpSTG:     "STG",
	OpLDS:     "LDS",
	OpSTS:     "STS",
	OpLDL:     "LDL",
	OpSTL:     "STL",
	OpLDC:     "LDC",
	OpTEX:     "TEX",
	OpATOM:    "ATOM",
	OpATOMS:   "ATOMS",
	OpRED:     "RED",
	OpMEMBAR:  "MEMBAR",
	OpFADD:    "FADD",
	OpFMUL:    "FMUL",
	OpFFMA:    "FFMA",
	OpFMNMX:   "FMNMX",
	OpFSETP:   "FSETP",
	OpMUFU:    "MUFU",
	OpDADD:    "DADD",
	OpDMUL:    "DMUL",
	OpDFMA:    "DFMA",
	OpDSETP:   "DSETP",
	OpIADD3:   "IADD3",
	OpIMAD:    "IMAD",
	OpISETP:   "ISETP",
	OpLOP3:    "LOP3",
	OpSHF:     "SHF",
	OpSEL:     "SEL",
	OpIMNMX:   "IMNMX",
	OpIABS:    "IABS",
	OpPOPC:    "POPC",
	OpI2F:     "I2F",
	OpF2I:     "F2I",
	OpF2F:     "F2F",
	OpI2I:     "I2I",
	OpMOV:     "MOV",
	OpS2R:     "S2R",
	OpSHFL:    "SHFL",
	OpPRMT:    "PRMT",
	OpBRA:     "BRA",
	OpEXIT:    "EXIT",
	OpBAR:     "BAR",
	OpNOP:     "NOP",
	OpRET:     "RET",
	OpLDGSTS:  "LDGSTS",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// opByName is the reverse of opNames, built lazily at init.
var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opNames))
	for op, name := range opNames {
		if Opcode(op) != OpInvalid {
			m[name] = Opcode(op)
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
	ClassGlobal               // L1TEX global path (LDG/STG/ATOM/RED)
	ClassLocal                // L1TEX local path (LDL/STL)
	ClassShared               // MIO shared-memory path (LDS/STS/ATOMS)
	ClassTexture              // TEX path
	ClassConst                // constant cache
	ClassControl
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassFP64:
		return "fp64"
	case ClassSFU:
		return "sfu"
	case ClassGlobal:
		return "global"
	case ClassLocal:
		return "local"
	case ClassShared:
		return "shared"
	case ClassTexture:
		return "texture"
	case ClassConst:
		return "const"
	case ClassControl:
		return "control"
	}
	return "unknown"
}

// ClassOf returns the execution class of an opcode.
func ClassOf(op Opcode) Class {
	switch op {
	case OpLDG, OpSTG, OpATOM, OpRED, OpLDGSTS:
		return ClassGlobal
	case OpLDL, OpSTL:
		return ClassLocal
	case OpLDS, OpSTS, OpATOMS:
		return ClassShared
	case OpTEX:
		return ClassTexture
	case OpLDC:
		return ClassConst
	case OpDADD, OpDMUL, OpDFMA, OpDSETP:
		return ClassFP64
	case OpMUFU:
		return ClassSFU
	case OpBRA, OpEXIT, OpBAR, OpRET, OpNOP, OpMEMBAR:
		return ClassControl
	default:
		return ClassALU
	}
}

// IsLoad reports whether the opcode reads memory into registers.
func IsLoad(op Opcode) bool {
	switch op {
	case OpLDG, OpLDS, OpLDL, OpLDC, OpTEX:
		return true
	}
	return false
}

// IsStore reports whether the opcode writes registers to memory.
func IsStore(op Opcode) bool {
	switch op {
	case OpSTG, OpSTS, OpSTL:
		return true
	}
	return false
}

// IsConversion reports whether the opcode is a datatype conversion
// (the §4.7 bottleneck class).
func IsConversion(op Opcode) bool {
	switch op {
	case OpI2F, OpF2I, OpF2F, OpI2I:
		return true
	}
	return false
}

// IsArith reports whether the opcode performs arithmetic on register
// values (used by the shared-memory detector to count compute uses).
func IsArith(op Opcode) bool {
	switch op {
	case OpFADD, OpFMUL, OpFFMA, OpFMNMX, OpMUFU,
		OpDADD, OpDMUL, OpDFMA,
		OpIADD3, OpIMAD, OpLOP3, OpSHF, OpSEL, OpIMNMX, OpIABS, OpPOPC:
		return true
	}
	return false
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
