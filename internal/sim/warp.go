package sim

import (
	"math/bits"

	"gpuscout/internal/sass"
)

// Dim3 is a CUDA grid/block dimension triple.
type Dim3 struct{ X, Y, Z int }

// Count returns X*Y*Z (1 substituted for zero components).
func (d Dim3) Count() int {
	x, y, z := d.dims()
	return x * y * z
}

// dims returns the components, 1 substituted for zero.
func (d Dim3) dims() (x, y, z int) {
	one := func(v int) int {
		if v == 0 {
			return 1
		}
		return v
	}
	return one(d.X), one(d.Y), one(d.Z)
}

// D1 makes a one-dimensional Dim3.
func D1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// D2 makes a two-dimensional Dim3.
func D2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// divEntry is one divergence-stack record: lanes waiting to run the other
// side of a branch, and lanes already parked at the reconvergence point.
type divEntry struct {
	reconv    uint64
	otherPC   uint64
	otherMask uint32
	joined    uint32
}

// blockState is the shared state of one resident CTA. Block structs,
// their warps, and the shared-memory segment all live in the SM's
// launchArena; slot names the arena slot so a retired block's memory can
// be recycled for the next pending CTA.
type blockState struct {
	idx        Dim3 // blockIdx
	dim        Dim3 // blockDim
	slot       int  // arena slot owning this block's backing memory
	shared     []byte
	warps      []*warp
	liveWarps  int // warps not yet done
	barArrived int // warps waiting at the current barrier
	// asyncDone is the cycle the block's outstanding cp.async-style
	// copies (LDGSTS) complete; the next barrier release waits for it.
	asyncDone float64
}

// warp is the execution state of one 32-thread warp: functional registers
// and divergence state, plus the timing fields the SM engine drives. The
// slice fields (regs, regReady, regSrc, localMem, stack) are views into
// the owning SM's launchArena, carved once at launch and zeroed — not
// reallocated — when the warp slot is recycled for a new CTA.
type warp struct {
	id     int // warp index within the block
	gid    int // global warp index (for stable scheduling order)
	block  *blockState
	pc     uint64
	active uint32
	stack  []divEntry
	done   bool

	regs  [][32]uint32 // [NumRegs+1][lane]; the last row is the zero row
	preds [sass.NumPreds][32]bool

	localMem []byte // 32 * LocalBytes, lane-major segments

	// Timing state (owned by the SM engine).
	readyAt    float64
	waitReason Stall        // why the warp is not ready before readyAt
	regReady   []float64    // per physical register, cycle the value lands
	regSrc     []sass.Class // producing pipe class, for stall attribution
	atBarrier  bool
	// stores outstanding; EXIT drains them.
	lastStoreDone float64

	// Cached scheduler classification (valid until cls.event or until the
	// warp's state changes).
	cls      wclass
	clsValid bool

	// stream is this warp's part of the launch's recording, when there is
	// one; a replay reads on from insts[at] and mem[memAt].
	stream    *warpStream
	at, memAt int
}

// laneTid returns the (x,y,z) thread index of a lane in this warp.
func (w *warp) laneTid(lane int) Dim3 {
	lin := w.id*32 + lane
	dx, dy := w.block.dim.X, w.block.dim.Y
	if dx == 0 {
		dx = 1
	}
	if dy == 0 {
		dy = 1
	}
	return Dim3{X: lin % dx, Y: (lin / dx) % dy, Z: lin / (dx * dy)}
}

// special reads a per-thread special register (S2R and special-register
// sources); the launch-constant ones are folded to values at decode.
func (w *warp) special(sr sass.SpecialReg, lane int) uint32 {
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
	}
	return 0
}

func (w *warp) rdPred(p sass.Pred, lane int) bool {
	if p == sass.PT {
		return true
	}
	return w.preds[p][lane]
}

func (w *warp) wrPred(p sass.Pred, lane int, v bool) {
	if p == sass.PT {
		return
	}
	w.preds[p][lane] = v
}

// guardMask returns the lanes whose guard predicate passes.
func (w *warp) guardMask(in *sass.Inst) uint32 {
	if in.Pred == sass.PT && !in.PredNeg {
		return w.active
	}
	var m uint32
	for act := w.active; act != 0; act &= act - 1 {
		lane := bits.TrailingZeros32(act)
		v := w.rdPred(in.Pred, lane)
		if in.PredNeg {
			v = !v
		}
		if v {
			m |= 1 << uint(lane)
		}
	}
	return m
}

// maybeReconverge handles arrival at divergence-stack reconvergence
// points and empty-mask continuation. It must be called whenever w.pc or
// w.active changes. Returns false when the warp has fully exited.
func (w *warp) maybeReconverge() bool {
	for {
		if len(w.stack) == 0 {
			if w.active == 0 {
				w.done = true
				return false
			}
			return true
		}
		top := &w.stack[len(w.stack)-1]
		if w.active != 0 && w.pc != top.reconv {
			return true
		}
		if w.pc == top.reconv || w.active == 0 {
			if top.otherMask != 0 {
				// Park the arrived lanes; run the other side.
				top.joined |= w.active
				w.active = top.otherMask
				w.pc = top.otherPC
				top.otherMask = 0
				continue
			}
			// Both sides done (or lanes exited): merge and pop. Lanes that
			// exited mid-divergence leave active empty; the parked lanes
			// resume at the reconvergence point.
			if w.active == 0 {
				w.pc = top.reconv
			}
			w.active |= top.joined
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return true
	}
}
