package kasm

import (
	"fmt"
	"math"

	"gpuscout/internal/sass"
)

// Builder incrementally constructs a Program. Emit methods mirror the
// instruction mix nvcc produces for the paper's kernels; each records the
// current source line (set with Line) so the generated SASS carries
// -g --generate-line-info-style attribution.
//
// Builder methods panic on structural misuse (wrong operand widths,
// predicate pool exhaustion): those are programming errors in kernel
// construction, not runtime conditions.
type Builder struct {
	p        *Program
	line     int
	predUsed [sass.NumPreds]bool
	built    bool
}

// NewBuilder starts a kernel named name for the given architecture tag,
// attributing code to the given source file.
func NewBuilder(name, arch, sourceFile string) *Builder {
	return &Builder{p: &Program{
		Name:       name,
		Arch:       arch,
		SourceFile: sourceFile,
		Labels:     map[string]int{},
	}}
}

// SetSource embeds the kernel's (pseudo-CUDA) source text, 1-based lines.
func (b *Builder) SetSource(lines []string) { b.p.Source = lines }

// Line sets the source line attributed to subsequently emitted
// instructions.
func (b *Builder) Line(n int) *Builder {
	b.line = n
	return b
}

// NumParams declares how many 8-byte parameter slots the kernel takes.
func (b *Builder) NumParams(n int) { b.p.NumParams = n }

// AllocShared reserves bytes of static shared memory and returns its byte
// offset within the block's shared segment.
func (b *Builder) AllocShared(bytes int) int64 {
	off := int64(b.p.ShmemBytes)
	b.p.ShmemBytes += (bytes + 15) / 16 * 16
	return off
}

func (b *Builder) newReg(width int) VReg {
	v := VReg(b.p.NumVRegs)
	b.p.NumVRegs++
	b.p.Widths = append(b.p.Widths, uint8(width))
	return v
}

func (b *Builder) emit(in VInst) {
	if in.Pred == 0 && !in.PredNeg {
		// Zero value means "unset"; default to unconditional. Guarded
		// emission goes through emitPred.
		in.Pred = sass.PT
	}
	in.Line = b.line
	b.p.Insts = append(b.p.Insts, in)
}

func (b *Builder) emitPred(p sass.Pred, neg bool, in VInst) {
	in.Pred, in.PredNeg = p, neg
	in.Line = b.line
	b.p.Insts = append(b.p.Insts, in)
}

func (b *Builder) widthOf(o VOperand) int {
	if o.Kind != VOpdReg || o.V == NoVReg {
		return 1
	}
	return int(b.p.Widths[o.V])
}

func (b *Builder) wantPair(o VOperand, what string) {
	if o.Kind == VOpdReg && b.widthOf(o) < 2 {
		panic(fmt.Sprintf("kasm: %s requires a 64-bit pair operand, got width %d", what, b.widthOf(o)))
	}
}

// --- special registers and parameters ---

// Special reads a special register (thread/block indices and dimensions).
func (b *Builder) Special(sr sass.SpecialReg) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpS2R, Dst: []VOperand{VR(d)}, Src: []VOperand{VSR(sr)}})
	return d
}

// TidX reads threadIdx.x.
func (b *Builder) TidX() VReg { return b.Special(sass.SRTidX) }

// TidY reads threadIdx.y.
func (b *Builder) TidY() VReg { return b.Special(sass.SRTidY) }

// CtaidX reads blockIdx.x.
func (b *Builder) CtaidX() VReg { return b.Special(sass.SRCtaidX) }

// CtaidY reads blockIdx.y.
func (b *Builder) CtaidY() VReg { return b.Special(sass.SRCtaidY) }

// NTidX reads blockDim.x.
func (b *Builder) NTidX() VReg { return b.Special(sass.SRNTidX) }

// NCtaidX reads gridDim.x.
func (b *Builder) NCtaidX() VReg { return b.Special(sass.SRNCtaidX) }

// ParamConst returns the constant-bank operand of 32-bit word w of
// parameter slot i (w=0 low word, w=1 high word).
func ParamConst(i, w int) VOperand {
	return VConst(0, int64(sass.ParamBase+8*i+4*w))
}

// Param32 loads a 32-bit parameter (int/float) into a register.
func (b *Builder) Param32(i int) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VR(d)}, Src: []VOperand{ParamConst(i, 0)}})
	return d
}

// ParamPtr loads a 64-bit pointer parameter into a register pair.
func (b *Builder) ParamPtr(i int) VReg {
	d := b.newReg(2)
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VRElem(d, 0)}, Src: []VOperand{ParamConst(i, 0)}})
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VRElem(d, 1)}, Src: []VOperand{ParamConst(i, 1)}})
	return d
}

// ParamF64 loads a 64-bit double parameter into a register pair.
func (b *Builder) ParamF64(i int) VReg { return b.ParamPtr(i) }

// --- moves and immediates ---

// MovImm materializes a 32-bit immediate.
func (b *Builder) MovImm(v int64) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VR(d)}, Src: []VOperand{VImm(v)}})
	return d
}

// MovImmF32 materializes a float32 immediate.
func (b *Builder) MovImmF32(f float32) VReg {
	return b.MovImm(int64(math.Float32bits(f)))
}

// MovImmF64 materializes a float64 immediate into a pair.
func (b *Builder) MovImmF64(f float64) VReg {
	bits := math.Float64bits(f)
	d := b.newReg(2)
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VRElem(d, 0)}, Src: []VOperand{VImm(int64(uint32(bits)))}})
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VRElem(d, 1)}, Src: []VOperand{VImm(int64(bits >> 32))}})
	return d
}

// Mov copies src into a fresh register.
func (b *Builder) Mov(src VOperand) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VR(d)}, Src: []VOperand{src}})
	return d
}

// MovTo copies src into an existing destination.
func (b *Builder) MovTo(dst, src VOperand) {
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{dst}, Src: []VOperand{src}})
}

// MovPair copies a 64-bit pair.
func (b *Builder) MovPair(src VReg) VReg {
	b.wantPair(VR(src), "MovPair")
	d := b.newReg(2)
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VRElem(d, 0)}, Src: []VOperand{VRElem(src, 0)}})
	b.emit(VInst{Op: sass.OpMOV, Dst: []VOperand{VRElem(d, 1)}, Src: []VOperand{VRElem(src, 1)}})
	return d
}

// --- integer arithmetic ---

func (b *Builder) alu3(op sass.Opcode, mods []string, a, c, d VOperand) VReg {
	dst := b.newReg(1)
	b.emit(VInst{Op: op, Mods: mods, Dst: []VOperand{VR(dst)}, Src: []VOperand{a, c, d}})
	return dst
}

// IAdd computes a + c.
func (b *Builder) IAdd(a, c VOperand) VReg {
	return b.alu3(sass.OpIADD3, nil, a, c, VZero())
}

// IAddTo computes dst = a + c in place.
func (b *Builder) IAddTo(dst VOperand, a, c VOperand) {
	b.emit(VInst{Op: sass.OpIADD3, Dst: []VOperand{dst}, Src: []VOperand{a, c, VZero()}})
}

// IMul computes a * c (32-bit).
func (b *Builder) IMul(a, c VOperand) VReg {
	return b.alu3(sass.OpIMAD, nil, a, c, VZero())
}

// IMad computes a*c + d (32-bit).
func (b *Builder) IMad(a, c, d VOperand) VReg {
	return b.alu3(sass.OpIMAD, nil, a, c, d)
}

// IMadTo computes dst = a*c + d in place (32-bit).
func (b *Builder) IMadTo(dst VOperand, a, c, d VOperand) {
	b.emit(VInst{Op: sass.OpIMAD, Dst: []VOperand{dst}, Src: []VOperand{a, c, d}})
}

// IMadWide computes base64 + a*c as a 64-bit address pair: the canonical
// SASS address calculation (IMAD.WIDE).
func (b *Builder) IMadWide(a, c VOperand, base64 VReg) VReg {
	b.wantPair(VR(base64), "IMadWide")
	d := b.newReg(2)
	b.emit(VInst{Op: sass.OpIMAD, Mods: []string{"WIDE"},
		Dst: []VOperand{VR(d)}, Src: []VOperand{a, c, VR(base64)}})
	return d
}

// Shl computes a << n.
func (b *Builder) Shl(a VOperand, n int64) VReg {
	return b.alu3(sass.OpSHF, []string{"L"}, a, VImm(n), VZero())
}

// Shr computes a >> n (logical).
func (b *Builder) Shr(a VOperand, n int64) VReg {
	return b.alu3(sass.OpSHF, []string{"R"}, a, VImm(n), VZero())
}

// And computes a & c.
func (b *Builder) And(a, c VOperand) VReg {
	return b.alu3(sass.OpLOP3, []string{"AND"}, a, c, VZero())
}

// IMin computes min(a, c) (signed).
func (b *Builder) IMin(a, c VOperand) VReg {
	return b.alu3(sass.OpIMNMX, []string{"MIN"}, a, c, VZero())
}

// IMax computes max(a, c) (signed).
func (b *Builder) IMax(a, c VOperand) VReg {
	return b.alu3(sass.OpIMNMX, []string{"MAX"}, a, c, VZero())
}

// WithPred guards every instruction emitted inside f with predicate p
// (negated when neg). Used for predicated-execution sequences like the
// halo handling of shared-memory stencils.
func (b *Builder) WithPred(p sass.Pred, neg bool, f func()) {
	start := len(b.p.Insts)
	f()
	for i := start; i < len(b.p.Insts); i++ {
		b.p.Insts[i].Pred = p
		b.p.Insts[i].PredNeg = neg
	}
}

// Raw emits an arbitrary single-destination ALU-style instruction into a
// fresh 32-bit register — the escape hatch for opcodes without a
// dedicated builder method (IABS, POPC, FMNMX, LOP3 variants, ...).
func (b *Builder) Raw(op sass.Opcode, mods []string, srcs ...VOperand) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: op, Mods: mods, Dst: []VOperand{VR(d)}, Src: srcs})
	return d
}

// Raw2P emits a SETP-style comparison with explicit modifiers (e.g.
// []string{"LT", "U32", "AND"}) and returns the predicate.
func (b *Builder) Raw2P(op sass.Opcode, mods []string, a, c VOperand) sass.Pred {
	p := b.AllocPred()
	b.emit(VInst{Op: op, Mods: mods,
		Dst: []VOperand{VPred(p, false), VPred(sass.PT, false)},
		Src: []VOperand{a, c, VPred(sass.PT, false)}})
	return p
}

// --- predicates and comparisons ---

// AllocPred reserves a predicate register from the pool.
func (b *Builder) AllocPred() sass.Pred {
	for p := 0; p < sass.NumPreds-1; p++ {
		if !b.predUsed[p] {
			b.predUsed[p] = true
			return sass.Pred(p)
		}
	}
	panic("kasm: predicate pool exhausted")
}

// FreePred returns a predicate to the pool.
func (b *Builder) FreePred(p sass.Pred) { b.predUsed[p] = false }

// ISetp compares a and c with cmp ("LT","LE","GT","GE","EQ","NE") and
// returns a fresh predicate holding the result.
func (b *Builder) ISetp(cmp string, a, c VOperand) sass.Pred {
	p := b.AllocPred()
	b.emit(VInst{Op: sass.OpISETP, Mods: []string{cmp, "AND"},
		Dst: []VOperand{VPred(p, false), VPred(sass.PT, false)},
		Src: []VOperand{a, c, VPred(sass.PT, false)}})
	return p
}

// --- fp32 ---

// FAdd computes a + c.
func (b *Builder) FAdd(a, c VOperand) VReg { return b.alu2(sass.OpFADD, nil, a, c) }

// FMul computes a * c.
func (b *Builder) FMul(a, c VOperand) VReg { return b.alu2(sass.OpFMUL, nil, a, c) }

func (b *Builder) alu2(op sass.Opcode, mods []string, a, c VOperand) VReg {
	dst := b.newReg(1)
	b.emit(VInst{Op: op, Mods: mods, Dst: []VOperand{VR(dst)}, Src: []VOperand{a, c}})
	return dst
}

// FFma computes a*c + d.
func (b *Builder) FFma(a, c, d VOperand) VReg {
	return b.alu3(sass.OpFFMA, nil, a, c, d)
}

// FFmaTo computes dst = a*c + d in place (accumulators, vector lanes).
func (b *Builder) FFmaTo(dst VOperand, a, c, d VOperand) {
	b.emit(VInst{Op: sass.OpFFMA, Dst: []VOperand{dst}, Src: []VOperand{a, c, d}})
}

// FAddTo computes dst = a + c in place.
func (b *Builder) FAddTo(dst VOperand, a, c VOperand) {
	b.emit(VInst{Op: sass.OpFADD, Dst: []VOperand{dst}, Src: []VOperand{a, c}})
}

// MufuRcp computes an approximate 1/a on the SFU pipe.
func (b *Builder) MufuRcp(a VOperand) VReg {
	dst := b.newReg(1)
	b.emit(VInst{Op: sass.OpMUFU, Mods: []string{"RCP"}, Dst: []VOperand{VR(dst)}, Src: []VOperand{a}})
	return dst
}

// --- fp64 (register pairs) ---

func (b *Builder) dalu(op sass.Opcode, srcs ...VOperand) VReg {
	for _, s := range srcs {
		b.wantPair(s, op.String())
	}
	dst := b.newReg(2)
	b.emit(VInst{Op: op, Dst: []VOperand{VR(dst)}, Src: srcs})
	return dst
}

// DAdd computes the double sum a + c.
func (b *Builder) DAdd(a, c VOperand) VReg { return b.dalu(sass.OpDADD, a, c) }

// DMul computes the double product a * c.
func (b *Builder) DMul(a, c VOperand) VReg { return b.dalu(sass.OpDMUL, a, c) }

// DFma computes the double a*c + d.
func (b *Builder) DFma(a, c, d VOperand) VReg { return b.dalu(sass.OpDFMA, a, c, d) }

// DFmaTo computes dst = a*c + d in place on pairs.
func (b *Builder) DFmaTo(dst VOperand, a, c, d VOperand) {
	b.wantPair(dst, "DFmaTo")
	b.emit(VInst{Op: sass.OpDFMA, Dst: []VOperand{dst}, Src: []VOperand{a, c, d}})
}

// DAddTo computes dst = a + c in place on pairs.
func (b *Builder) DAddTo(dst VOperand, a, c VOperand) {
	b.wantPair(dst, "DAddTo")
	b.emit(VInst{Op: sass.OpDADD, Dst: []VOperand{dst}, Src: []VOperand{a, c}})
}

// --- conversions (§4.7 traffic) ---

// I2F converts a signed 32-bit integer to float32.
func (b *Builder) I2F(a VOperand) VReg {
	return b.conv(sass.OpI2F, []string{"F32", "S32"}, a, 1)
}

// F2I converts float32 to a signed 32-bit integer (truncating).
func (b *Builder) F2I(a VOperand) VReg {
	return b.conv(sass.OpF2I, []string{"S32", "F32", "TRUNC"}, a, 1)
}

// F2FWiden converts float32 to float64.
func (b *Builder) F2FWiden(a VOperand) VReg {
	return b.conv(sass.OpF2F, []string{"F64", "F32"}, a, 2)
}

// F2FNarrow converts float64 (pair) to float32.
func (b *Builder) F2FNarrow(a VOperand) VReg {
	b.wantPair(a, "F2FNarrow")
	return b.conv(sass.OpF2F, []string{"F32", "F64"}, a, 1)
}

func (b *Builder) conv(op sass.Opcode, mods []string, a VOperand, dstWidth int) VReg {
	dst := b.newReg(dstWidth)
	b.emit(VInst{Op: op, Mods: mods, Dst: []VOperand{VR(dst)}, Src: []VOperand{a}})
	return dst
}

// --- memory ---

// Ldg loads widthBytes (4, 8 or 16) from global memory at [base+off].
// nc routes the load through the read-only data cache (LDG.E.NC), the
// compiled form of const __restrict__ pointers.
func (b *Builder) Ldg(base VReg, off int64, widthBytes int, nc bool) VReg {
	b.wantPair(VR(base), "Ldg")
	mods := append([]string{"E"}, widthMods(widthBytes, "Ldg")...)
	if nc {
		mods = append(mods, "NC")
	}
	mods = append(mods, "SYS")
	d := b.newReg(widthBytes / 4)
	b.emit(VInst{Op: sass.OpLDG, Mods: mods, Dst: []VOperand{VR(d)}, Src: []VOperand{VMem(base, off)}})
	return d
}

// LdgTo loads widthBytes from global memory at [base+off] into an
// existing destination register (group).
func (b *Builder) LdgTo(dst VReg, base VReg, off int64, widthBytes int, nc bool) {
	if b.p.WidthOf(dst) != widthBytes/4 {
		panic(fmt.Sprintf("kasm: LdgTo width mismatch: dst %d words, load %dB", b.p.WidthOf(dst), widthBytes))
	}
	n := len(b.p.Insts)
	// Rewrite the freshly emitted load to target dst. The vreg Ldg made
	// for it goes unused but stays allocated: it numbers every virtual
	// register after it, which the pinned workload kernels depend on.
	_ = b.Ldg(base, off, widthBytes, nc)
	b.p.Insts[n].Dst = []VOperand{VR(dst)}
}

// LdsTo loads widthBytes from shared memory into an existing destination.
func (b *Builder) LdsTo(dst VReg, addr VReg, off int64, widthBytes int) {
	if b.p.WidthOf(dst) != widthBytes/4 {
		panic(fmt.Sprintf("kasm: LdsTo width mismatch: dst %d words, load %dB", b.p.WidthOf(dst), widthBytes))
	}
	n := len(b.p.Insts)
	_ = b.Lds(addr, off, widthBytes)
	b.p.Insts[n].Dst = []VOperand{VR(dst)}
}

// Stg stores widthBytes from val to global memory at [base+off].
func (b *Builder) Stg(base VReg, off int64, val VReg, widthBytes int) {
	b.wantPair(VR(base), "Stg")
	mods := append([]string{"E"}, widthMods(widthBytes, "Stg")...)
	mods = append(mods, "SYS")
	b.emit(VInst{Op: sass.OpSTG, Mods: mods, Dst: []VOperand{VMem(base, off)}, Src: []VOperand{VR(val)}})
}

// Lds loads widthBytes from shared memory at [addr32+off].
func (b *Builder) Lds(addr VReg, off int64, widthBytes int) VReg {
	mods := widthMods(widthBytes, "Lds")
	d := b.newReg(widthBytes / 4)
	b.emit(VInst{Op: sass.OpLDS, Mods: mods, Dst: []VOperand{VR(d)}, Src: []VOperand{VMem(addr, off)}})
	return d
}

// Sts stores widthBytes to shared memory at [addr32+off].
func (b *Builder) Sts(addr VReg, off int64, val VReg, widthBytes int) {
	mods := widthMods(widthBytes, "Sts")
	b.emit(VInst{Op: sass.OpSTS, Mods: mods, Dst: []VOperand{VMem(addr, off)}, Src: []VOperand{VR(val)}})
}

// widthMods is sass.WidthMods for the builder method what, which panics
// on a width no access has.
func widthMods(widthBytes int, what string) []string {
	mods, ok := sass.WidthMods(widthBytes)
	if !ok {
		panic(fmt.Sprintf("kasm: %s width %d", what, widthBytes))
	}
	return mods
}

// RedAddF32 performs a global atomic float add without return value.
func (b *Builder) RedAddF32(base VReg, off int64, val VReg) {
	b.wantPair(VR(base), "RedAddF32")
	b.emit(VInst{Op: sass.OpRED, Mods: []string{"E", "ADD", "F32"},
		Dst: []VOperand{VMem(base, off)}, Src: []VOperand{VR(val)}})
}

// AtomsAddF32 performs a shared-memory atomic float add, returning the
// old value.
func (b *Builder) AtomsAddF32(addr VReg, off int64, val VReg) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpATOMS, Mods: []string{"ADD", "F32"},
		Dst: []VOperand{VR(d), VMem(addr, off)}, Src: []VOperand{VR(val)}})
	return d
}

// ShflDown reads the value of lane (laneid + delta) within the warp;
// out-of-range lanes keep their own value (__shfl_down_sync).
func (b *Builder) ShflDown(v VOperand, delta int64) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpSHFL, Mods: []string{"DOWN"},
		Dst: []VOperand{VR(d)}, Src: []VOperand{v, VImm(delta)}})
	return d
}

// ShflBfly reads lane (laneid ^ mask): the butterfly exchange.
func (b *Builder) ShflBfly(v VOperand, mask int64) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpSHFL, Mods: []string{"BFLY"},
		Dst: []VOperand{VR(d)}, Src: []VOperand{v, VImm(mask)}})
	return d
}

// ShflIdx reads an arbitrary lane's value.
func (b *Builder) ShflIdx(v VOperand, lane VOperand) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpSHFL, Mods: []string{"IDX"},
		Dst: []VOperand{VR(d)}, Src: []VOperand{v, lane}})
	return d
}

// Tex2D samples texture texID (bound at launch) at integer coordinates
// (x, y), returning one float32 texel.
func (b *Builder) Tex2D(texID int, x, y VOperand) VReg {
	d := b.newReg(1)
	b.emit(VInst{Op: sass.OpTEX, Mods: []string{"2D"},
		Dst: []VOperand{VR(d)}, Src: []VOperand{x, y, VImm(int64(texID))}})
	return d
}

// --- control flow ---

// LabelName marks the next emitted instruction with a branch target label.
func (b *Builder) LabelName(name string) {
	if _, dup := b.p.Labels[name]; dup {
		panic(fmt.Sprintf("kasm: duplicate label %q", name))
	}
	b.p.Labels[name] = len(b.p.Insts)
}

// Bra emits an unconditional branch to a label.
func (b *Builder) Bra(label string) {
	b.emit(VInst{Op: sass.OpBRA, Label: label})
}

// BraIf emits a branch taken when predicate p (negated if neg) holds.
func (b *Builder) BraIf(p sass.Pred, neg bool, label string) {
	b.emitPred(p, neg, VInst{Op: sass.OpBRA, Label: label})
}

// Bar emits a block-wide barrier (__syncthreads()).
func (b *Builder) Bar() {
	b.emit(VInst{Op: sass.OpBAR, Mods: []string{"SYNC"}})
}

// Exit emits the kernel's terminating EXIT.
func (b *Builder) Exit() {
	b.emit(VInst{Op: sass.OpEXIT})
}

// ExitPred emits a guarded EXIT (early thread termination).
func (b *Builder) ExitPred(p sass.Pred, neg bool) {
	b.emitPred(p, neg, VInst{Op: sass.OpEXIT})
}

// Build finalizes and validates the program.
func (b *Builder) Build() (*Program, error) {
	if b.built {
		return nil, fmt.Errorf("kasm: Build called twice on %s", b.p.Name)
	}
	b.built = true
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return b.p, nil
}
