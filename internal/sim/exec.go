package sim

import (
	"fmt"
	"math/bits"

	"gpuscout/internal/sass"
)

// memDesc is the part of a memory access fixed by the instruction.
type memDesc struct {
	space  sass.Class // Global, Local, Shared, Texture, Const
	write  bool
	atomic bool
	nc     bool // read-only (LDG.E.NC) path
	async  bool // cp.async-style global→shared copy (LDGSTS)
	width  int  // bytes per lane
}

// memAccess describes the memory behaviour of one executed warp
// instruction: the space, access width and per-lane addresses, from which
// engine.words derives what the timing model reads.
type memAccess struct {
	memDesc
	mask  uint32
	addrs [32]uint64
}

// accesses reports whether d, issued under mask, accessed memory: exactly
// the memory instructions decode a width, and they access memory when at
// least one lane runs.
func (d *decoded) accesses(mask uint32) bool { return d.mem.width != 0 && mask != 0 }

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

// exec functionally executes one decoded instruction for all
// guarded-active lanes and advances the PC. Memory behaviour is reported
// for the timing model in *ma, which the caller passes zeroed. execMask is
// the caller-computed guard mask (issue already needs it for
// thread-instruction accounting; warp state is unchanged in between, so
// computing it once is exact).
func (e *engine) exec(w *warp, d *decoded, execMask uint32, ma *memAccess) error {
	in := d.in
	nextPC := in.PC + sass.InstBytes
	if d.constErr != nil && execMask != 0 {
		return e.fault(in, d.constErr)
	}

	switch d.op {
	case sass.OpLDG, sass.OpSTG, sass.OpLDL, sass.OpSTL, sass.OpLDS, sass.OpSTS,
		sass.OpLDC, sass.OpTEX, sass.OpATOM, sass.OpATOMS, sass.OpRED, sass.OpLDGSTS:
		if err := e.execMem(w, d, execMask, ma); err != nil {
			return e.fault(in, err)
		}

	case sass.OpISETP, sass.OpFSETP:
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a, b := d.src[0].get(w, lane), d.src[1].get(w, lane)
			var res bool
			switch d.num {
			case numF32:
				res = compare(d.cmp, f32(a), f32(b))
			case numU32:
				res = compare(d.cmp, uint32(a), uint32(b))
			default:
				res = compare(d.cmp, int32(a), int32(b))
			}
			c := d.src[2].get(w, lane) != 0 // .AND with the source predicate
			w.wrPred(d.dpred[0], lane, res && c)
			w.wrPred(d.dpred[1], lane, !res && c)
		}

	case sass.OpSHFL:
		// Warp shuffle: every lane reads another lane's pre-shuffle value.
		// Inactive source lanes (and out-of-range indices) return the
		// reading lane's own value, like __shfl_*_sync with a full mask.
		var pre [32]uint32
		for lane := range pre {
			pre[lane] = uint32(d.src[0].get(w, lane))
		}
		dst := &w.regs[d.reg]
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			arg := int(d.src[1].get(w, lane))
			src := lane
			switch d.shfl {
			case shflDown:
				src = lane + arg
			case shflUp:
				src = lane - arg
			case shflBfly:
				src = lane ^ arg
			case shflIdx:
				src = arg & 31
			}
			if src < 0 || src > 31 || execMask&(1<<uint(src)) == 0 {
				src = lane
			}
			dst[lane] = pre[src]
		}

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
			// side, reconverge at d.reconv; lanes that exit on the way
			// clear themselves via EXIT.
			w.stack = append(w.stack, divEntry{
				reconv:    d.reconv,
				otherPC:   in.Target,
				otherMask: taken,
			})
			w.active = notTaken
			w.pc = nextPC
		}
		w.maybeReconverge()
		return nil

	case sass.OpEXIT:
		w.active &^= execMask
		if w.active != 0 {
			// Guard-false lanes continue past the EXIT.
			w.pc = nextPC
		}
		w.maybeReconverge()
		return nil

	case sass.OpBAR, sass.OpNOP, sass.OpMEMBAR, sass.OpRET:
		// BAR timing handled by the engine; functionally a no-op here.

	default:
		// Every other opcode decode accepts is register-to-register. With
		// a one-word destination and three row operands, each source row
		// and its XOR mask is read once for the warp, not per lane.
		lo := &w.regs[d.reg]
		if s := &d.src; d.words == 1 && s[0].kind == kindReg && s[1].kind == kindReg && s[2].kind == kindReg {
			a, b, c := &w.regs[s[0].reg], &w.regs[s[1].reg], &w.regs[s[2].reg]
			xa, xb, xc := s[0].bits, s[1].bits, s[2].bits
			for m := execMask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				lo[lane] = uint32(d.fn(uint64(a[lane])^xa, uint64(b[lane])^xb, uint64(c[lane])^xc))
			}
			break
		}
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			v := d.fn(d.src[0].get(w, lane), d.src[1].get(w, lane), d.src[2].get(w, lane))
			lo[lane] = uint32(v)
			if d.words == 2 {
				w.regs[d.reg+1][lane] = uint32(v >> 32)
			}
		}
	}
	w.pc = nextPC
	w.maybeReconverge()
	return nil
}

func (e *engine) fault(in *sass.Inst, err error) error {
	return &execError{Kernel: e.kernel.Name, PC: in.PC, Line: in.Line, Err: err}
}
