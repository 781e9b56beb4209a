package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gpuscout/internal/sass"
)

// decoded is one instruction resolved for execution, built once per launch
// by decode. Everything the executor and the scheduler would otherwise
// re-derive per issue from modifier strings and operand unions is settled
// here, and everything that would make execution index out of the
// register or predicate file is rejected here.
type decoded struct {
	in *sass.Inst
	// op is in.Op, except that a register-to-register operation whose
	// destination is RZ has no architectural effect and executes as OpNOP.
	op sass.Opcode

	// Scoreboard lists. dep is the instruction's source registers followed
	// by its destination registers: classify keeps the first of several
	// equally late blockers (strict >), so this order decides which pipe a
	// stall is attributed to. dst is the destination tail of dep.
	dep, dst []sass.Reg

	// reconv is where the lanes of a divergent BRA rejoin: its immediate
	// post-dominator, or the kernel end when one side exits.
	reconv uint64

	// src are the value operands the opcode reads; unused slots read 0.
	src [3]operand
	// row is the row kernel of a register-to-register operation with a
	// one-word destination and one-word sources. fn is the per-lane
	// function of every other one (a pair source or destination; the
	// result is in the low 32 bits unless the destination is a pair), and
	// the read-modify-write combine fn(old, operand, 0) of an atomic.
	row func(r, a, b, c *[32]uint32)
	fn  func(a, b, c uint64) uint64
	// reg and words name the registers moved per lane: the destination of
	// an ALU operation, load or atomic, the source of a store. words is 0
	// when reg is RZ (writes are discarded, stores write zeros).
	reg   sass.Reg
	words int

	// SETP: comparison, operand type and the two destination predicates.
	cmp   cmpOp
	num   numKind
	dpred [2]sass.Pred

	shfl shflMode

	// Memory instructions: the static half of the access descriptor and
	// the address operand; sdst is LDGSTS's shared-memory destination.
	mem        memDesc
	addr, sdst address

	// constErr is set when a source names a constant outside bank 0's
	// extent. It is raised when the instruction issues with at least one
	// guarded-active lane, so dead or predicated-off code may carry one.
	constErr error
}

type operandKind uint8

const (
	// kindReg reads one register row. RZ and every lane-invariant 32-bit
	// source (immediate, in-range constant, a special register fixed for
	// the launch) are the warp's zero row with the value in bits.
	kindReg     operandKind = iota
	kindPair                // a 64-bit register pair (reg, reg+1)
	kindUniform             // a lane-invariant 64-bit value: a constant pair, RZ as a pair
	kindSpecial             // a per-thread special register: a row of the warp's sregs
	kindPred                // one bit of a predicate's lane mask; PT is all ones
	kindNeg                 // a register an integer opcode negates in two's complement
)

// operand is one pre-resolved source. bits is XORed into what is read: the
// sign bit of a floating-point negated register (-R4), 1 for a negated
// predicate (!P0), the whole value of a lane-invariant operand. neg negates
// an integer register pair in two's complement after that.
type operand struct {
	kind operandKind
	reg  sass.Reg
	pred sass.Pred
	sr   sass.SpecialReg
	bits uint64
	neg  bool
	// uni is a lane-invariant 32-bit source's row, every lane bits, when
	// bits is not 0 (see decode).
	uni *[32]uint32
}

// get reads the operand for one lane: zero-extended for a 32-bit source,
// all 64 bits for a pair. Nearly every dynamic operand is a kindReg, which
// is answered here so the call inlines into the lane loops.
func (o *operand) get(w *warp, lane int) uint64 {
	if o.kind == kindReg {
		return uint64(w.regs[o.reg][lane]) ^ o.bits
	}
	return o.getOther(w, lane)
}

func (o *operand) getOther(w *warp, lane int) uint64 {
	switch o.kind {
	case kindPair:
		v := (uint64(w.regs[o.reg][lane]) | uint64(w.regs[o.reg+1][lane])<<32) ^ o.bits
		if o.neg {
			return -v
		}
		return v
	case kindSpecial:
		return uint64(w.sregs[o.sr-sass.SRTidX][lane])
	case kindPred:
		return uint64(w.preds[o.pred]>>lane&1) ^ o.bits
	case kindNeg:
		return uint64(-w.regs[o.reg][lane])
	}
	return o.bits
}

// row returns the operand's value in every lane as one row: a register
// row itself when nothing applies to it, a lane-invariant value's row, a
// special register's row, else t holding the values.
func (o *operand) row(w *warp, t *[32]uint32) *[32]uint32 {
	switch {
	case o.kind == kindReg && o.bits == 0:
		return &w.regs[o.reg]
	case o.uni != nil:
		return o.uni
	case o.kind == kindSpecial:
		return w.sregs[o.sr-sass.SRTidX]
	}
	for l := range t {
		t[l] = uint32(o.get(w, l))
	}
	return t
}

// lanes is the mask of the lanes where the operand reads non-zero: for a
// predicate, its word of the predicate file.
func (o *operand) lanes(w *warp, t *[32]uint32) (m uint32) {
	if o.kind == kindPred {
		return w.preds[o.pred] ^ -uint32(o.bits)
	}
	for l, v := range o.row(w, t) {
		if v != 0 {
			m |= 1 << l
		}
	}
	return m
}

// address is a memory operand [base+off]; a base of RZ reads 0.
type address struct {
	base operand
	off  int64
}

// at is a global address for one lane: a register pair, or RZ as a
// uniform pair, plus the offset.
func (a *address) at(w *warp, lane int) uint64 {
	base := a.base.bits
	if b := &a.base; b.kind == kindPair {
		base ^= uint64(w.regs[b.reg][lane]) | uint64(w.regs[b.reg+1][lane])<<32
	}
	return base + uint64(a.off)
}

// offset applies the base(+RZ)+imm rule of the segment spaces (local,
// shared, constant): the byte offset, and whether width bytes at it fit in
// a segment of size bytes.
func (a *address) offset(w *warp, lane, width, size int) (int, bool) {
	off := int(int32(a.base.get(w, lane))) + int(a.off)
	return off, off >= 0 && off <= size-width
}

type cmpOp uint8

const (
	cmpLT cmpOp = iota
	cmpLE
	cmpGT
	cmpGE
	cmpEQ
	cmpNE
)

var cmpByName = map[string]cmpOp{
	"LT": cmpLT, "LE": cmpLE, "GT": cmpGT, "GE": cmpGE, "EQ": cmpEQ, "NE": cmpNE,
}

func compare[T uint32 | float32](op cmpOp, a, b T) bool {
	switch op {
	case cmpLT:
		return a < b
	case cmpLE:
		return a <= b
	case cmpGT:
		return a > b
	case cmpGE:
		return a >= b
	case cmpEQ:
		return a == b
	}
	return a != b
}

type numKind uint8

const (
	numS32 numKind = iota
	numU32
	numF32
)

type shflMode uint8

const (
	shflDown shflMode = iota
	shflUp
	shflBfly
	shflIdx
)

func f32(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func b32(f float32) uint64 { return uint64(math.Float32bits(f)) }
func f64(v uint64) float64 { return math.Float64frombits(v) }
func b64(f float64) uint64 { return math.Float64bits(f) }

// nan32 is an FP32 arithmetic result's register value: a NaN is the
// canonical 0x7fffffff NVIDIA hardware writes, not the host FPU's payload.
func nan32(f float32) uint64 {
	if f != f {
		return 0x7fffffff
	}
	return b32(f)
}

// f2i converts like F2I.S32, toward zero, saturating, and NaN to 0, where
// Go leaves an out-of-range conversion to the implementation.
func f2i(f float32) uint64 {
	switch {
	case f != f:
		return 0
	case f >= 0x1p31:
		return math.MaxInt32
	}
	return uint64(int32(max(f, -0x1p31)))
}

// decode builds the launch's instruction table, or returns an error naming
// the PC of the first instruction the executor could not run: a register
// outside the kernel's register file, a missing operand or modifier, an
// operand kind the opcode cannot read, an opcode that is not modeled.
func (e *engine) decode() ([]decoded, error) {
	cfg, err := sass.BuildCFG(e.kernel)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	insts := e.kernel.Insts
	code := make([]decoded, len(insts))
	// Views carved before an append regrows flat or uni stay valid: their
	// contents are final, the old backing array just lives on with them.
	var flat []sass.Reg
	var uni [][32]uint32
	zero := e.uniform(0, 1)
	for i := range insts {
		in, d := &insts[i], &code[i]
		d.in, d.op = in, in.Op
		d.src = [3]operand{zero, zero, zero}
		lo := len(flat)
		flat = in.SrcRegs(flat)
		mid := len(flat)
		flat = in.DstRegs(flat)
		d.dep, d.dst = flat[lo:len(flat):len(flat)], flat[mid:len(flat):len(flat)]
		if in.Op == sass.OpBRA {
			var ok bool
			if d.reconv, ok = cfg.IPDomPC(i); !ok {
				d.reconv = uint64(len(insts)) * sass.InstBytes
			}
		}
		if err := e.decodeInst(d); err != nil {
			return nil, fmt.Errorf("sim: kernel %s at PC %#x: %w", e.kernel.Name, in.PC, err)
		}
		// A lane-invariant 32-bit source reads the zero row XOR bits: its
		// row is built here once, not per issue.
		for j := range d.src {
			if o := &d.src[j]; o.kind == kindReg && o.reg == zero.reg && o.bits != 0 {
				uni = append(uni, [32]uint32{})
				o.uni = &uni[len(uni)-1]
				for l := range o.uni {
					o.uni[l] = uint32(o.bits)
				}
			}
		}
	}
	return code, nil
}

func (e *engine) decodeInst(d *decoded) error {
	in := d.in
	if in.Pred > sass.PT {
		return fmt.Errorf("guard predicate %d does not exist", in.Pred)
	}
	dstW, srcW, lastW := sass.OperandWords(in.Op, in.Mods)
	switch c := sass.ClassOf(in.Op); {
	case c == sass.ClassControl:
		return nil
	case c.IsMemory():
		return e.decodeMem(d, dstW, srcW)
	}
	nsrc := 0 // value operands the opcode reads
	switch in.Op {
	case sass.OpISETP, sass.OpFSETP:
		if len(in.Mods) == 0 {
			return fmt.Errorf("%s without a comparison modifier", in.Op)
		}
		var ok bool
		if d.cmp, ok = cmpByName[in.Mods[0]]; !ok {
			return fmt.Errorf("%s comparison %q not modeled", in.Op, in.Mods[0])
		}
		switch {
		case in.Op == sass.OpFSETP:
			d.num = numF32
		case in.HasMod("U32"):
			d.num = numU32
		}
		d.dpred = [2]sass.Pred{sass.PT, sass.PT}
		if len(in.Dst) == 0 {
			return fmt.Errorf("%s without a destination predicate", in.Op)
		}
		for i, o := range in.Dst[:min(2, len(in.Dst))] {
			if o.Kind != sass.OpdPred || o.Pred > sass.PT {
				return fmt.Errorf("%s cannot write %v", in.Op, o)
			}
			d.dpred[i] = o.Pred
		}
		return e.sources(d, 3, srcW, lastW)

	case sass.OpSHFL:
		switch {
		case in.HasMod("DOWN"):
			d.shfl = shflDown
		case in.HasMod("UP"):
			d.shfl = shflUp
		case in.HasMod("BFLY"):
			d.shfl = shflBfly
		case in.HasMod("IDX"):
			d.shfl = shflIdx
		default:
			return fmt.Errorf("SHFL variant %v not modeled", in.Mods)
		}
		nsrc = 2

	case sass.OpMOV, sass.OpS2R, sass.OpI2I:
		d.row, nsrc = func(r, a, _, _ *[32]uint32) { *r = *a }, 1
	case sass.OpIADD3:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, iadd3) }, 3
	case sass.OpIMAD:
		// The low 32 bits of a*b+c are the 32-bit multiply-add; with
		// zero-extended a and b all 64 are IMAD.WIDE.U32.
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, imad) }, 3
		if dstW == 2 {
			d.row, d.fn = nil, imad
			if !in.HasMod("U32") {
				d.fn = func(a, b, c uint64) uint64 { return uint64(int64(int32(a))*int64(int32(b))) + c }
			}
		}
	case sass.OpLOP3:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, b, _ uint64) uint64 { return a & b }) }, 2
		switch {
		case in.HasMod("OR"):
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, b, _ uint64) uint64 { return a | b }) }
		case in.HasMod("XOR"):
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, b, _ uint64) uint64 { return a ^ b }) }
		}
	case sass.OpSHF:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, b, _ uint64) uint64 { return a >> (b & 31) }) }, 2
		if in.HasMod("L") {
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, b, _ uint64) uint64 { return a << (b & 31) }) }
		}
	case sass.OpSEL:
		d.row, nsrc = func(r, a, b, c *[32]uint32) {
			rows(r, a, b, c, func(a, b, p uint64) uint64 {
				if p != 0 {
					return a
				}
				return b
			})
		}, 3
	case sass.OpIMNMX:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, imax) }, 2
		if in.HasMod("MIN") {
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, imin) }
		}
	case sass.OpIABS:
		d.row, nsrc = func(r, a, b, c *[32]uint32) {
			rows(r, a, b, c, func(a, _, _ uint64) uint64 {
				if int32(a) < 0 {
					return -a
				}
				return a
			})
		}, 1
	case sass.OpPOPC:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, popc) }, 1

	case sass.OpFADD:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, fadd) }, 2
	case sass.OpFMUL:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, fmul) }, 2
	case sass.OpFFMA:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, ffma) }, 3
	case sass.OpFMNMX:
		// NaN compares false: MAX then yields a, MIN yields b.
		d.row, nsrc = func(r, a, b, c *[32]uint32) {
			rows(r, a, b, c, func(a, b, _ uint64) uint64 {
				if f32(a) < f32(b) {
					return b
				}
				return a
			})
		}, 2
		if in.HasMod("MIN") {
			d.row = func(r, a, b, c *[32]uint32) {
				rows(r, a, b, c, func(a, b, _ uint64) uint64 {
					if f32(a) < f32(b) {
						return a
					}
					return b
				})
			}
		}
	case sass.OpMUFU:
		nsrc = 1
		switch {
		case in.HasMod("RCP"):
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, _, _ uint64) uint64 { return b32(1 / f32(a)) }) }
		case in.HasMod("SQRT"):
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, sqrt) }
		case in.HasMod("RSQ"):
			d.row = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, rsq) }
		default:
			return fmt.Errorf("MUFU variant %v not modeled", in.Mods)
		}

	case sass.OpDADD:
		d.fn, nsrc = func(a, b, _ uint64) uint64 { return b64(f64(a) + f64(b)) }, 2
	case sass.OpDMUL:
		d.fn, nsrc = func(a, b, _ uint64) uint64 { return b64(f64(a) * f64(b)) }, 2
	case sass.OpDFMA:
		d.fn, nsrc = func(a, b, c uint64) uint64 { return b64(f64(a)*f64(b) + f64(c)) }, 3

	case sass.OpI2F:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, i2f) }, 1
		if dstW == 2 {
			d.row, d.fn = nil, func(a, _, _ uint64) uint64 { return b64(float64(int32(a))) }
		}
	case sass.OpF2I:
		d.row, nsrc = func(r, a, b, c *[32]uint32) { rows(r, a, b, c, func(a, _, _ uint64) uint64 { return f2i(f32(a)) }) }, 1
	case sass.OpF2F:
		nsrc = 1
		switch {
		case dstW == 2:
			d.fn = func(a, _, _ uint64) uint64 { return b64(float64(f32(a))) }
		case srcW == 2:
			d.fn = func(a, _, _ uint64) uint64 { return b32(float32(f64(a))) }
		default:
			return fmt.Errorf("F2F needs .F64.F32 or .F32.F64, has %v", in.Mods)
		}

	default:
		return fmt.Errorf("opcode %s not modeled", in.Op)
	}

	var err error
	if d.reg, d.words, err = e.dest(in, dstW); err != nil {
		return err
	}
	if d.words == 0 {
		d.op = sass.OpNOP
	}
	return e.sources(d, nsrc, srcW, lastW)
}

// decodeMem resolves a memory instruction: its space and direction, the
// address operand(s), and the registers or value moved.
func (e *engine) decodeMem(d *decoded, dstW, srcW int) error {
	in := d.in
	m := &d.mem
	m.space = sass.ClassOf(in.Op)
	m.width = in.WidthBytes()
	m.nc = m.space == sass.ClassGlobal && in.IsNC()

	var err error
	if in.Op == sass.OpTEX {
		m.width = 4 // one float32 texel
		if d.reg, d.words, err = e.dest(in, 1); err != nil {
			return err
		}
		return e.sources(d, 3, 1, 1)
	}

	mem, ok := in.MemOperand()
	if in.Op == sass.OpLDGSTS {
		if len(in.Dst) == 0 || in.Dst[0].Kind != sass.OpdMem ||
			len(in.Src) == 0 || in.Src[0].Kind != sass.OpdMem {
			return fmt.Errorf("LDGSTS needs shared-dst and global-src memory operands")
		}
		m.async = true
		mem = in.Src[0]
		if d.sdst, err = e.address(in.Dst[0], sass.BaseWords(in.Op, true)); err != nil {
			return err
		}
	} else if !ok {
		return fmt.Errorf("%s without memory operand", in.Op)
	}
	if d.addr, err = e.address(mem, sass.BaseWords(in.Op, false)); err != nil {
		return err
	}

	switch {
	case sass.IsLoad(in.Op):
		d.reg, d.words, err = e.dest(in, dstW)
	case sass.IsStore(in.Op):
		m.write = true
		if len(in.Src) == 0 || in.Src[0].Kind != sass.OpdReg {
			return fmt.Errorf("%s needs a register to store", in.Op)
		}
		if d.reg = in.Src[0].Reg; !d.reg.IsZ() {
			d.words = srcW
			err = e.inFile(d.reg, srcW)
		}
	case sass.IsAtomic(in.Op):
		m.atomic, m.write = true, true
		m.width = 4 // atomics are modeled on 32-bit words
		d.fn = atomFn(in)
		if in.Op != sass.OpRED && len(in.Dst) > 0 && in.Dst[0].Kind == sass.OpdReg {
			if d.reg, d.words, err = e.dest(in, 1); err != nil {
				return err
			}
		}
		err = e.sources(d, 1, 1, 1)
	}
	return err
}

// rows is a row kernel's loop: lane function f over all 32 lanes of a, b
// and c into r. Each lane reads its sources before it writes, so r may be
// one of them. Every row kernel is a literal calling rows with a literal
// or named f, so the compiler inlines rows and then f: the kernel is one
// loop with the operation in it, not a call per lane.
func rows(r, a, b, c *[32]uint32, f func(a, b, c uint64) uint64) {
	for l := range r {
		r[l] = uint32(f(uint64(a[l]), uint64(b[l]), uint64(c[l])))
	}
}

// Named lane functions of row kernels. iadd3, imin and imax are also the
// integer atomics' combines, imad IMAD.WIDE.U32's lane function.
func iadd3(a, b, c uint64) uint64 { return a + b + c }
func imad(a, b, c uint64) uint64  { return a*b + c }
func popc(a, _, _ uint64) uint64  { return uint64(bits.OnesCount32(uint32(a))) }
func fadd(a, b, _ uint64) uint64  { return nan32(f32(a) + f32(b)) }
func fmul(a, b, _ uint64) uint64  { return nan32(f32(a) * f32(b)) }
func ffma(a, b, c uint64) uint64  { return nan32(f32(a)*f32(b) + f32(c)) }
func sqrt(a, _, _ uint64) uint64  { return b32(float32(math.Sqrt(float64(f32(a))))) }
func rsq(a, _, _ uint64) uint64   { return b32(float32(1 / math.Sqrt(float64(f32(a))))) }
func i2f(a, _, _ uint64) uint64   { return b32(float32(int32(a))) }

func imin(a, b, _ uint64) uint64 {
	if int32(a) < int32(b) {
		return a
	}
	return b
}

func imax(a, b, _ uint64) uint64 {
	if int32(a) < int32(b) {
		return b
	}
	return a
}

// atomFn picks the read-modify-write combine fn(old, v, 0) of
// ATOM/ATOMS/RED; without an operation modifier it is an integer add,
// like a bare .ADD. A float MIN/MAX keeps old when either side is a NaN.
func atomFn(in *sass.Inst) func(old, v, _ uint64) uint64 {
	isF32 := in.HasMod("F32")
	switch {
	case in.HasMod("ADD"):
		if isF32 {
			return func(old, v, _ uint64) uint64 { return b32(f32(old) + f32(v)) }
		}
	case in.HasMod("MIN"):
		if isF32 {
			return func(old, v, _ uint64) uint64 {
				if f32(v) < f32(old) {
					return v
				}
				return old
			}
		}
		return imin
	case in.HasMod("MAX"):
		if isF32 {
			return func(old, v, _ uint64) uint64 {
				if f32(v) > f32(old) {
					return v
				}
				return old
			}
		}
		return imax
	case in.HasMod("EXCH"):
		return func(_, v, _ uint64) uint64 { return v }
	}
	return iadd3
}

// inFile checks that registers r..r+words-1 exist in the kernel's register
// file — what makes indexing warp.regs with a decoded register safe.
func (e *engine) inFile(r sass.Reg, words int) error {
	if int(r)+words > e.kernel.NumRegs {
		return fmt.Errorf("%s (%d registers wide) is outside the kernel's %d registers", r, words, e.kernel.NumRegs)
	}
	return nil
}

// dest resolves the register destination Dst[0] of an instruction writing
// words registers per lane; RZ discards the write (0 words).
func (e *engine) dest(in *sass.Inst, words int) (sass.Reg, int, error) {
	if len(in.Dst) == 0 || in.Dst[0].Kind != sass.OpdReg {
		return 0, 0, fmt.Errorf("%s without a register destination", in.Op)
	}
	r := in.Dst[0].Reg
	if r.IsZ() {
		return r, 0, nil
	}
	return r, words, e.inFile(r, words)
}

// sources resolves the first n of in.Src as value operands, each words
// registers wide and the n-th lastWords wide.
func (e *engine) sources(d *decoded, n, words, lastWords int) error {
	if len(d.in.Src) < n {
		return fmt.Errorf("%s needs %d source operands, has %d", d.in.Op, n, len(d.in.Src))
	}
	for i := 0; i < n; i++ {
		if i == n-1 {
			words = lastWords
		}
		var err error
		if d.src[i], err = e.resolve(d, d.in.Src[i], words); err != nil {
			return err
		}
	}
	return nil
}

// address resolves a memory operand whose base is words registers wide
// (sass.BaseWords).
func (e *engine) address(o sass.Operand, words int) (address, error) {
	base, err := e.resolve(nil, sass.R(o.Reg), words)
	return address{base: base, off: o.Imm}, err
}

// uniform is a lane-invariant operand: 32-bit ones read the zero row.
func (e *engine) uniform(v uint64, words int) operand {
	if words == 2 {
		return operand{kind: kindUniform, bits: v}
	}
	return operand{reg: sass.Reg(e.kernel.NumRegs), bits: v}
}

// signNeg reports whether d's opcode negates a source by flipping its sign
// bit, as floating-point opcodes do, rather than in two's complement.
func signNeg(d *decoded) bool {
	if sass.IsAtomic(d.in.Op) {
		return d.in.HasMod("F32")
	}
	return sass.IsFloat(d.in.Op)
}

// resolve pre-resolves source o for a read of words (1 or 2) registers. An
// out-of-range constant is not an error here: it is recorded in
// d.constErr and reads as 0.
func (e *engine) resolve(d *decoded, o sass.Operand, words int) (operand, error) {
	switch o.Kind {
	case sass.OpdReg:
		var flip uint64
		neg := o.Neg && !signNeg(d)
		if o.Neg && !neg {
			flip = 1 << (32*words - 1)
		}
		if o.Reg.IsZ() {
			return e.uniform(flip, words), nil
		}
		kind := kindReg
		switch {
		case words == 2:
			kind = kindPair
		case neg:
			kind = kindNeg
		}
		return operand{kind: kind, reg: o.Reg, bits: flip, neg: neg}, e.inFile(o.Reg, words)
	case sass.OpdConst:
		if o.Bank != 0 || o.Imm < 0 || int(o.Imm)+4*words > len(e.constMem) {
			if words == 2 {
				d.constErr = fmt.Errorf("constant pair c[%#x][%#x] out of range", o.Bank, o.Imm)
			} else {
				d.constErr = fmt.Errorf("constant c[%#x][%#x] out of range", o.Bank, o.Imm)
			}
			return e.uniform(0, words), nil
		}
		if words == 2 {
			return e.uniform(binary.LittleEndian.Uint64(e.constMem[o.Imm:]), 2), nil
		}
		return e.uniform(uint64(binary.LittleEndian.Uint32(e.constMem[o.Imm:])), 1), nil
	}
	if words == 1 {
		switch o.Kind {
		case sass.OpdImm:
			return e.uniform(uint64(uint32(o.Imm)), 1), nil
		case sass.OpdSpecial:
			switch o.Special {
			case sass.SRNTidX:
				return e.uniform(uint64(uint32(e.block.X)), 1), nil
			case sass.SRNTidY:
				return e.uniform(uint64(uint32(e.block.Y)), 1), nil
			case sass.SRNCtaidX:
				return e.uniform(uint64(uint32(e.grid.X)), 1), nil
			case sass.SRNCtaidY:
				return e.uniform(uint64(uint32(e.grid.Y)), 1), nil
			}
			if o.Special >= sass.SRTidX && o.Special <= sass.SRLaneID {
				return operand{kind: kindSpecial, sr: o.Special}, nil
			}
			return e.uniform(0, 1), nil // no per-thread value: reads 0
		case sass.OpdPred:
			var flip uint64
			if o.Neg {
				flip = 1
			}
			if o.Pred <= sass.PT {
				return operand{kind: kindPred, pred: o.Pred, bits: flip}, nil
			}
		}
	}
	return operand{}, fmt.Errorf("unreadable %d-bit operand %v", 32*words, o)
}
