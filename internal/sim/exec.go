package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gpuscout/internal/sass"
)

// memAccess describes the memory behaviour of one issued warp instruction
// for the timing model: the space, per-lane addresses, and access width.
type memAccess struct {
	valid  bool
	space  sass.Class // Global, Local, Shared, Texture, Const
	write  bool
	atomic bool
	nc     bool // read-only (LDG.E.NC) path
	async  bool // cp.async-style global→shared copy (LDGSTS)
	width  int  // bytes per lane
	mask   uint32
	addrs  [32]uint64
}

// execError wraps a functional-execution fault with its location.
type execError struct {
	Kernel string
	PC     uint64
	Line   int
	Err    error
}

func (e *execError) Error() string {
	return fmt.Sprintf("sim: kernel %s at PC %#x (line %d): %v", e.Kernel, e.PC, e.Line, e.Err)
}

func (e *execError) Unwrap() error { return e.Err }

func f32(bits uint32) float32  { return math.Float32frombits(bits) }
func b32(f float32) uint32     { return math.Float32bits(f) }
func f64b(bits uint64) float64 { return math.Float64frombits(bits) }
func b64(f float64) uint64     { return math.Float64bits(f) }

// val reads a 32-bit source operand for one lane.
func (e *engine) val(w *warp, o sass.Operand, lane int) (uint32, error) {
	switch o.Kind {
	case sass.OpdReg:
		v := w.rd(o.Reg, lane)
		if o.Neg {
			v ^= 0x80000000
		}
		return v, nil
	case sass.OpdImm:
		return uint32(o.Imm), nil
	case sass.OpdConst:
		if o.Bank != 0 || o.Imm < 0 || int(o.Imm)+4 > len(e.constMem) {
			return 0, fmt.Errorf("constant c[%#x][%#x] out of range", o.Bank, o.Imm)
		}
		return binary.LittleEndian.Uint32(e.constMem[o.Imm:]), nil
	case sass.OpdSpecial:
		return e.specialVal(w, o.Special, lane), nil
	case sass.OpdPred:
		if w.rdPred(o.Pred, lane) != o.Neg {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unreadable operand %v", o)
}

// val64 reads a 64-bit source operand (register pair or constant pair).
func (e *engine) val64(w *warp, o sass.Operand, lane int) (uint64, error) {
	switch o.Kind {
	case sass.OpdReg:
		v := w.rd64(o.Reg, lane)
		if o.Neg {
			v ^= 1 << 63
		}
		return v, nil
	case sass.OpdConst:
		if o.Bank != 0 || o.Imm < 0 || int(o.Imm)+8 > len(e.constMem) {
			return 0, fmt.Errorf("constant pair c[%#x][%#x] out of range", o.Bank, o.Imm)
		}
		return binary.LittleEndian.Uint64(e.constMem[o.Imm:]), nil
	}
	return 0, fmt.Errorf("unreadable 64-bit operand %v", o)
}

func (e *engine) specialVal(w *warp, sr sass.SpecialReg, lane int) uint32 {
	tid := w.laneTid(lane)
	switch sr {
	case sass.SRTidX:
		return uint32(tid.X)
	case sass.SRTidY:
		return uint32(tid.Y)
	case sass.SRTidZ:
		return uint32(tid.Z)
	case sass.SRCtaidX:
		return uint32(w.block.idx.X)
	case sass.SRCtaidY:
		return uint32(w.block.idx.Y)
	case sass.SRCtaidZ:
		return uint32(w.block.idx.Z)
	case sass.SRLaneID:
		return uint32(lane)
	case sass.SRNTidX:
		return uint32(w.block.dim.X)
	case sass.SRNTidY:
		return uint32(w.block.dim.Y)
	case sass.SRNCtaidX:
		return uint32(e.grid.X)
	case sass.SRNCtaidY:
		return uint32(e.grid.Y)
	}
	return 0
}

// exec functionally executes one instruction for all guarded-active lanes
// and advances the PC. Memory behaviour is reported for the timing model.
// execMask is the caller-computed guard mask (issue already needs it for
// thread-instruction accounting; warp state is unchanged in between, so
// computing it once is exact).
func (e *engine) exec(w *warp, in *sass.Inst, execMask uint32) (ma memAccess, err error) {
	defer func() {
		if err != nil {
			err = &execError{Kernel: e.kernel.Name, PC: in.PC, Line: in.Line, Err: err}
		}
	}()

	nextPC := in.PC + sass.InstBytes

	lanes := func(f func(lane int) error) error {
		for m := execMask; m != 0; m &= m - 1 {
			if err := f(bits.TrailingZeros32(m)); err != nil {
				return err
			}
		}
		return nil
	}

	switch in.Op {
	case sass.OpMOV, sass.OpS2R:
		fastDone := false
		if in.Op == sass.OpMOV && !in.Dst[0].Reg.IsZ() {
			if o, ok := e.resolve32(in.Src[0]); ok {
				dst := &w.regs[in.Dst[0].Reg]
				for m := execMask; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					dst[lane] = o.get(w, lane)
				}
				fastDone = true
			}
		}
		if !fastDone {
			err = lanes(func(lane int) error {
				v, err := e.val(w, in.Src[0], lane)
				if err != nil {
					return err
				}
				w.wr(in.Dst[0].Reg, lane, v)
				return nil
			})
		}

	case sass.OpIADD3:
		err = e.intOp(w, in, execMask, func(a, b, c int32) int32 { return a + b + c })

	case sass.OpIMAD:
		if in.HasMod("WIDE") {
			isU32 := in.HasMod("U32")
			ra, ok1 := e.resolve32(in.Src[0])
			rb, ok2 := e.resolve32(in.Src[1])
			rc, ok3 := e.resolve64(in.Src[2])
			if d := in.Dst[0].Reg; ok1 && ok2 && ok3 && !d.IsZ() {
				lo, hi := &w.regs[d], &w.regs[d+1]
				for m := execMask; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					a, b := ra.get(w, lane), rb.get(w, lane)
					var prod int64
					if isU32 {
						prod = int64(uint64(a) * uint64(b))
					} else {
						prod = int64(int32(a)) * int64(int32(b))
					}
					v := uint64(prod) + rc.get(w, lane)
					lo[lane] = uint32(v)
					hi[lane] = uint32(v >> 32)
				}
			} else {
				err = lanes(func(lane int) error {
					a, err1 := e.val(w, in.Src[0], lane)
					b, err2 := e.val(w, in.Src[1], lane)
					if err1 != nil || err2 != nil {
						return firstErr(err1, err2)
					}
					c, err3 := e.val64(w, in.Src[2], lane)
					if err3 != nil {
						return err3
					}
					var prod int64
					if isU32 {
						prod = int64(uint64(a) * uint64(b))
					} else {
						prod = int64(int32(a)) * int64(int32(b))
					}
					w.wr64(in.Dst[0].Reg, lane, uint64(prod)+c)
					return nil
				})
			}
		} else {
			err = e.intOp(w, in, execMask, func(a, b, c int32) int32 { return a*b + c })
		}

	case sass.OpLOP3:
		fn := func(a, b, c int32) int32 { return a & b }
		switch {
		case in.HasMod("OR"):
			fn = func(a, b, c int32) int32 { return a | b }
		case in.HasMod("XOR"):
			fn = func(a, b, c int32) int32 { return a ^ b }
		}
		err = e.intOp(w, in, execMask, fn)

	case sass.OpSHF:
		left := in.HasMod("L")
		err = e.intOp(w, in, execMask, func(a, b, c int32) int32 {
			sh := uint32(b) & 31
			if left {
				return int32(uint32(a) << sh)
			}
			return int32(uint32(a) >> sh)
		})

	case sass.OpSEL:
		err = lanes(func(lane int) error {
			a, err1 := e.val(w, in.Src[0], lane)
			b, err2 := e.val(w, in.Src[1], lane)
			p, err3 := e.val(w, in.Src[2], lane)
			if err := firstErr(err1, err2, err3); err != nil {
				return err
			}
			if p != 0 {
				w.wr(in.Dst[0].Reg, lane, a)
			} else {
				w.wr(in.Dst[0].Reg, lane, b)
			}
			return nil
		})

	case sass.OpIMNMX:
		min := in.HasMod("MIN")
		err = e.intOp(w, in, execMask, func(a, b, c int32) int32 {
			if (a < b) == min {
				return a
			}
			return b
		})

	case sass.OpIABS:
		err = e.intOp(w, in, execMask, func(a, b, c int32) int32 {
			if a < 0 {
				return -a
			}
			return a
		})

	case sass.OpPOPC:
		err = e.intOp(w, in, execMask, func(a, b, c int32) int32 {
			return int32(bits.OnesCount32(uint32(a)))
		})

	case sass.OpISETP, sass.OpFSETP:
		isFloat := in.Op == sass.OpFSETP
		isU32 := !isFloat && in.HasMod("U32")
		cmpOp := in.Mods[0]
		dst2 := sass.PT
		if len(in.Dst) > 1 {
			dst2 = in.Dst[1].Pred
		}
		ra, ok1 := e.resolve32(in.Src[0])
		rb, ok2 := e.resolve32(in.Src[1])
		rc, ok3 := e.resolve32(in.Src[2])
		if ok1 && ok2 && ok3 {
			dstP := in.Dst[0].Pred
			for m := execMask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a, b, c := ra.get(w, lane), rb.get(w, lane), rc.get(w, lane)
				var res bool
				if isFloat {
					res = fcmp(cmpOp, f32(a), f32(b))
				} else if isU32 {
					res = ucmp(cmpOp, a, b)
				} else {
					res = icmp(cmpOp, int32(a), int32(b))
				}
				res = res && c != 0 // .AND with the source predicate
				w.wrPred(dstP, lane, res)
				if dst2 != sass.PT {
					w.wrPred(dst2, lane, !res && c != 0)
				}
			}
		} else {
			err = lanes(func(lane int) error {
				a, err1 := e.val(w, in.Src[0], lane)
				b, err2 := e.val(w, in.Src[1], lane)
				c, err3 := e.val(w, in.Src[2], lane)
				if err := firstErr(err1, err2, err3); err != nil {
					return err
				}
				var res bool
				if isFloat {
					res = fcmp(cmpOp, f32(a), f32(b))
				} else if isU32 {
					res = ucmp(cmpOp, a, b)
				} else {
					res = icmp(cmpOp, int32(a), int32(b))
				}
				res = res && c != 0 // .AND with the source predicate
				w.wrPred(in.Dst[0].Pred, lane, res)
				if dst2 != sass.PT {
					w.wrPred(dst2, lane, !res && c != 0)
				}
				return nil
			})
		}

	case sass.OpFADD:
		err = e.fOp(w, in, execMask, func(a, b, c float32) float32 { return a + b })
	case sass.OpFMUL:
		err = e.fOp(w, in, execMask, func(a, b, c float32) float32 { return a * b })
	case sass.OpFFMA:
		err = e.fOp(w, in, execMask, func(a, b, c float32) float32 { return a*b + c })
	case sass.OpFMNMX:
		min := in.HasMod("MIN")
		err = e.fOp(w, in, execMask, func(a, b, c float32) float32 {
			if (a < b) == min {
				return a
			}
			return b
		})

	case sass.OpMUFU:
		err = lanes(func(lane int) error {
			a, err := e.val(w, in.Src[0], lane)
			if err != nil {
				return err
			}
			x := f32(a)
			var r float32
			switch {
			case in.HasMod("RCP"):
				r = 1 / x
			case in.HasMod("SQRT"):
				r = float32(math.Sqrt(float64(x)))
			case in.HasMod("RSQ"):
				r = float32(1 / math.Sqrt(float64(x)))
			default:
				return fmt.Errorf("MUFU variant %v not modeled", in.Mods)
			}
			w.wr(in.Dst[0].Reg, lane, b32(r))
			return nil
		})

	case sass.OpDADD:
		err = e.dOp(w, in, execMask, func(a, b, c float64) float64 { return a + b })
	case sass.OpDMUL:
		err = e.dOp(w, in, execMask, func(a, b, c float64) float64 { return a * b })
	case sass.OpDFMA:
		err = e.dOp(w, in, execMask, func(a, b, c float64) float64 { return a*b + c })

	case sass.OpI2F:
		toF64 := len(in.Mods) > 0 && in.Mods[0] == "F64"
		err = lanes(func(lane int) error {
			a, err := e.val(w, in.Src[0], lane)
			if err != nil {
				return err
			}
			if toF64 {
				w.wr64(in.Dst[0].Reg, lane, b64(float64(int32(a))))
			} else {
				w.wr(in.Dst[0].Reg, lane, b32(float32(int32(a))))
			}
			return nil
		})

	case sass.OpF2I:
		err = lanes(func(lane int) error {
			a, err := e.val(w, in.Src[0], lane)
			if err != nil {
				return err
			}
			w.wr(in.Dst[0].Reg, lane, uint32(int32(f32(a))))
			return nil
		})

	case sass.OpF2F:
		widen := len(in.Mods) > 1 && in.Mods[0] == "F64"
		err = lanes(func(lane int) error {
			if widen {
				a, err := e.val(w, in.Src[0], lane)
				if err != nil {
					return err
				}
				w.wr64(in.Dst[0].Reg, lane, b64(float64(f32(a))))
				return nil
			}
			a, err := e.val64(w, in.Src[0], lane)
			if err != nil {
				return err
			}
			w.wr(in.Dst[0].Reg, lane, b32(float32(f64b(a))))
			return nil
		})

	case sass.OpI2I:
		err = lanes(func(lane int) error {
			a, err := e.val(w, in.Src[0], lane)
			if err != nil {
				return err
			}
			w.wr(in.Dst[0].Reg, lane, a)
			return nil
		})

	case sass.OpSHFL:
		// Warp shuffle: every lane reads another lane's pre-shuffle value.
		// Inactive source lanes (and out-of-range indices) return the
		// reading lane's own value, like __shfl_*_sync with a full mask.
		var pre [32]uint32
		for lane := 0; lane < 32; lane++ {
			pre[lane], _ = e.val(w, in.Src[0], lane)
		}
		err = lanes(func(lane int) error {
			bval, err := e.val(w, in.Src[1], lane)
			if err != nil {
				return err
			}
			src := lane
			switch {
			case in.HasMod("DOWN"):
				src = lane + int(bval)
			case in.HasMod("UP"):
				src = lane - int(bval)
			case in.HasMod("BFLY"):
				src = lane ^ int(bval)
			case in.HasMod("IDX"):
				src = int(bval) & 31
			}
			if src < 0 || src > 31 || execMask&(1<<uint(src)) == 0 {
				src = lane
			}
			w.wr(in.Dst[0].Reg, lane, pre[src])
			return nil
		})

	case sass.OpLDG, sass.OpSTG, sass.OpLDL, sass.OpSTL, sass.OpLDS, sass.OpSTS,
		sass.OpLDC, sass.OpTEX, sass.OpATOM, sass.OpATOMS, sass.OpRED, sass.OpLDGSTS:
		ma, err = e.execMem(w, in, execMask)

	case sass.OpBRA:
		taken := execMask
		notTaken := w.active &^ taken
		switch {
		case taken == 0 || in.Target == nextPC:
			// Not taken (or a no-op jump): plain fall-through.
			w.pc = nextPC
		case notTaken == 0:
			w.pc = in.Target
		default:
			// Divergence: run the fall-through side first, park the taken
			// side, reconverge at the immediate post-dominator.
			idx := int(in.PC / sass.InstBytes)
			reconv, ok := e.ipdomPC(idx)
			if !ok {
				// No post-dominator (an exit on one side): use the kernel
				// end; exiting lanes clear themselves via EXIT.
				reconv = uint64(len(e.kernel.Insts)) * sass.InstBytes
			}
			w.stack = append(w.stack, divEntry{
				reconv:    reconv,
				otherPC:   in.Target,
				otherMask: taken,
			})
			w.active = notTaken
			w.pc = nextPC
		}
		w.maybeReconverge()
		return ma, nil

	case sass.OpEXIT:
		w.active &^= execMask
		if w.active != 0 {
			// Guard-false lanes continue past the EXIT.
			w.pc = nextPC
		}
		w.maybeReconverge()
		return ma, nil

	case sass.OpBAR, sass.OpNOP, sass.OpMEMBAR, sass.OpRET:
		// BAR timing handled by the engine; functionally a no-op here.

	default:
		err = fmt.Errorf("opcode %s not modeled", in.Op)
	}
	if err != nil {
		return ma, err
	}
	w.pc = nextPC
	w.maybeReconverge()
	return ma, nil
}

// opd32 is a source operand pre-resolved for the arithmetic fast path:
// either a register reference or a lane-invariant value.
type opd32 struct {
	isReg bool
	neg   bool
	reg   sass.Reg
	val   uint32
}

func (o *opd32) get(w *warp, lane int) uint32 {
	if !o.isReg {
		return o.val
	}
	v := w.regs[o.reg][lane]
	if o.neg {
		v ^= 0x80000000
	}
	return v
}

// resolve32 classifies an operand for the fast path. It mirrors val():
// immediates and in-range constants are lane-invariant, RZ (negated or
// not) is a lane-invariant literal, registers defer the read. Operand
// kinds with per-lane logic beyond a register read (specials,
// predicates) and out-of-range constants report !ok and take the
// original per-lane path.
func (e *engine) resolve32(o sass.Operand) (opd32, bool) {
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg.IsZ() {
			var v uint32
			if o.Neg {
				v = 0x80000000
			}
			return opd32{val: v}, true
		}
		return opd32{isReg: true, reg: o.Reg, neg: o.Neg}, true
	case sass.OpdImm:
		return opd32{val: uint32(o.Imm)}, true
	case sass.OpdConst:
		if o.Bank != 0 || o.Imm < 0 || int(o.Imm)+4 > len(e.constMem) {
			return opd32{}, false
		}
		return opd32{val: binary.LittleEndian.Uint32(e.constMem[o.Imm:])}, true
	case sass.OpdPred:
		// PT reads as true in every lane: val() yields 1 (0 when negated).
		// Allocatable predicates are per-lane state — slow path.
		if o.Pred == sass.PT {
			if o.Neg {
				return opd32{}, true
			}
			return opd32{val: 1}, true
		}
	}
	return opd32{}, false
}

func (e *engine) intOp(w *warp, in *sass.Inst, mask uint32, f func(a, b, c int32) int32) error {
	if mask == 0 {
		return nil
	}
	var ops [3]opd32
	fast := !in.Dst[0].Reg.IsZ()
	for i := 0; fast && i < len(in.Src) && i < 3; i++ {
		var ok bool
		if ops[i], ok = e.resolve32(in.Src[i]); !ok {
			fast = false
		}
	}
	if fast {
		dst := &w.regs[in.Dst[0].Reg]
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := ops[0].get(w, lane)
			b := ops[1].get(w, lane)
			c := ops[2].get(w, lane)
			dst[lane] = uint32(f(int32(a), int32(b), int32(c)))
		}
		return nil
	}
	return e.intOpSlow(w, in, mask, f)
}

// intOpSlow is the original per-lane operand path, kept for operand
// kinds the fast path does not cover; it defines the error semantics.
func (e *engine) intOpSlow(w *warp, in *sass.Inst, mask uint32, f func(a, b, c int32) int32) error {
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a, err1 := e.val(w, in.Src[0], lane)
		var b, c uint32
		var err2, err3 error
		if len(in.Src) > 1 {
			b, err2 = e.val(w, in.Src[1], lane)
		}
		if len(in.Src) > 2 {
			c, err3 = e.val(w, in.Src[2], lane)
		}
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		w.wr(in.Dst[0].Reg, lane, uint32(f(int32(a), int32(b), int32(c))))
	}
	return nil
}

func (e *engine) fOp(w *warp, in *sass.Inst, mask uint32, f func(a, b, c float32) float32) error {
	if mask == 0 {
		return nil
	}
	var ops [3]opd32
	fast := !in.Dst[0].Reg.IsZ()
	for i := 0; fast && i < len(in.Src) && i < 3; i++ {
		var ok bool
		if ops[i], ok = e.resolve32(in.Src[i]); !ok {
			fast = false
		}
	}
	if fast {
		dst := &w.regs[in.Dst[0].Reg]
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := f32(ops[0].get(w, lane))
			b := f32(ops[1].get(w, lane))
			c := f32(ops[2].get(w, lane))
			dst[lane] = b32(f(a, b, c))
		}
		return nil
	}
	return e.intOpSlow(w, in, mask, func(a, b, c int32) int32 {
		return int32(b32(f(f32(uint32(a)), f32(uint32(b)), f32(uint32(c)))))
	})
}

// opd64 mirrors opd32 for 64-bit (register-pair or constant-pair)
// operands.
type opd64 struct {
	isReg bool
	neg   bool
	reg   sass.Reg
	val   uint64
}

func (o *opd64) get(w *warp, lane int) uint64 {
	if !o.isReg {
		return o.val
	}
	v := uint64(w.regs[o.reg][lane]) | uint64(w.regs[o.reg+1][lane])<<32
	if o.neg {
		v ^= 1 << 63
	}
	return v
}

func (e *engine) resolve64(o sass.Operand) (opd64, bool) {
	switch o.Kind {
	case sass.OpdReg:
		if o.Reg.IsZ() {
			// val64's rd64(RZ) touches RZ+1; keep the slow path's exact
			// behavior for this degenerate case.
			return opd64{}, false
		}
		return opd64{isReg: true, reg: o.Reg, neg: o.Neg}, true
	case sass.OpdConst:
		if o.Bank != 0 || o.Imm < 0 || int(o.Imm)+8 > len(e.constMem) {
			return opd64{}, false
		}
		return opd64{val: binary.LittleEndian.Uint64(e.constMem[o.Imm:])}, true
	}
	return opd64{}, false
}

func (e *engine) dOp(w *warp, in *sass.Inst, mask uint32, f func(a, b, c float64) float64) error {
	if mask == 0 {
		return nil
	}
	var ops [3]opd64
	fast := !in.Dst[0].Reg.IsZ()
	for i := 0; fast && i < len(in.Src) && i < 3; i++ {
		var ok bool
		if ops[i], ok = e.resolve64(in.Src[i]); !ok {
			fast = false
		}
	}
	if fast {
		d := in.Dst[0].Reg
		lo, hi := &w.regs[d], &w.regs[d+1]
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a := ops[0].get(w, lane)
			b := ops[1].get(w, lane)
			c := ops[2].get(w, lane)
			v := b64(f(f64b(a), f64b(b), f64b(c)))
			lo[lane] = uint32(v)
			hi[lane] = uint32(v >> 32)
		}
		return nil
	}
	return e.dOpSlow(w, in, mask, f)
}

func (e *engine) dOpSlow(w *warp, in *sass.Inst, mask uint32, f func(a, b, c float64) float64) error {
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a, err1 := e.val64(w, in.Src[0], lane)
		var b, c uint64
		var err2, err3 error
		if len(in.Src) > 1 {
			b, err2 = e.val64(w, in.Src[1], lane)
		}
		if len(in.Src) > 2 {
			c, err3 = e.val64(w, in.Src[2], lane)
		}
		if err := firstErr(err1, err2, err3); err != nil {
			return err
		}
		w.wr64(in.Dst[0].Reg, lane, b64(f(f64b(a), f64b(b), f64b(c))))
	}
	return nil
}

func icmp(op string, a, b int32) bool {
	switch op {
	case "LT":
		return a < b
	case "LE":
		return a <= b
	case "GT":
		return a > b
	case "GE":
		return a >= b
	case "EQ":
		return a == b
	case "NE":
		return a != b
	}
	return false
}

func ucmp(op string, a, b uint32) bool {
	switch op {
	case "LT":
		return a < b
	case "LE":
		return a <= b
	case "GT":
		return a > b
	case "GE":
		return a >= b
	case "EQ":
		return a == b
	case "NE":
		return a != b
	}
	return false
}

func fcmp(op string, a, b float32) bool {
	switch op {
	case "LT":
		return a < b
	case "LE":
		return a <= b
	case "GT":
		return a > b
	case "GE":
		return a >= b
	case "EQ":
		return a == b
	case "NE":
		return a != b
	}
	return false
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
