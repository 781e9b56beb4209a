package sim

import (
	"gpuscout/internal/sass"
)

// initStackCap is the divergence-stack capacity carved per warp from the
// arena backing. Deeper nesting reallocates off-arena once and the grown
// buffer is then retained by the slot for the rest of the launch.
const initStackCap = 8

// launchArena owns every piece of per-SM mutable warp and block state as
// a few large flat backing slices carved into per-slot views: warp
// structs, register files, scoreboard (regReady/regSrc), local memory,
// divergence stacks, block structs and their shared-memory segments.
//
// It is allocated once per smState when the SM starts running and is
// never freed mid-launch: when a resident block retires, its slot is
// pushed onto freeSlots and the next pending CTA re-uses the same memory
// after a reset (zeroing, not reallocation). This keeps the simulator
// hot path allocation-free after launch setup — the arena
// allocate/reset/reuse discipline described in DESIGN.md.
//
// A slot covers one resident block and its warpsPerBlock warps; slot
// indices are invisible to the timing model: global warp IDs, which feed
// scheduling order and local-memory addressing, keep increasing
// monotonically across re-uses, so which slot a CTA lands in never
// changes a result.
type launchArena struct {
	warpsPerBlock int

	warps  []warp       // slots*warpsPerBlock structs
	blocks []blockState // one per slot

	blockWarps []*warp // slots*warpsPerBlock backing for blockState.warps

	// Every warp's register file has one row more than the kernel has
	// registers: row numRegs is never written, so it reads as zero in
	// every lane — the row RZ and lane-invariant operands are read from.
	regs     [][32]uint32 // slots*warpsPerBlock*(numRegs+1)
	regReady []float64    // slots*warpsPerBlock*numRegs
	regSrc   []sass.Class // same shape as regReady
	localMem []byte       // slots*warpsPerBlock*32*localBytes
	shared   []byte       // slots*sharedBytes
	stacks   []divEntry   // slots*warpsPerBlock*initStackCap

	// The rows the per-thread special registers read (warp.sregs): the
	// thread index (x, y, z) of each lane per warp index in the block,
	// shared by the slots, the block index per slot, set at takeBlock, and
	// the lane ids.
	tids, ctaids [][3][32]uint32
	laneIDs      [32]uint32

	// freeSlots is the stack of block slots available for the next
	// pending CTA. Popped and pushed only by the SM that owns the arena,
	// so re-use order is deterministic.
	freeSlots []int
}

// newLaunchArena sizes an arena for `slots` simultaneously resident
// blocks of the current kernel and carves all per-warp views, and the
// scheduler's empty warp sets with room for every resident warp. Views
// are carved exactly once — resets only zero their contents. Without
// functional — a replay, which executes nothing — the arena has only the
// timing state: no register files, local or shared memory or divergence
// stacks.
func newLaunchArena(k *sass.Kernel, block Dim3, slots int, functional bool) (*launchArena, warpSets) {
	wpb := (block.Count() + 31) / 32
	n := slots * wpb
	ptrs := make([]*warp, 2*n) // blockWarps, awake
	rows := k.NumRegs + 1      // the kernel's registers and the zero row
	localBytes, sharedBytes, stackCap := k.LocalBytes, k.SharedBytes, initStackCap
	if !functional {
		rows, localBytes, sharedBytes, stackCap = 0, 0, 0, 0
	}
	a := &launchArena{
		warpsPerBlock: wpb,
		warps:         make([]warp, slots*wpb),
		blocks:        make([]blockState, slots),
		blockWarps:    ptrs[:n:n],
		regs:          make([][32]uint32, slots*wpb*rows),
		regReady:      make([]float64, slots*wpb*k.NumRegs),
		regSrc:        make([]sass.Class, slots*wpb*k.NumRegs),
		stacks:        make([]divEntry, slots*wpb*stackCap),
		freeSlots:     make([]int, 0, slots),
	}
	if localBytes > 0 {
		a.localMem = make([]byte, slots*wpb*32*localBytes)
	}
	if sharedBytes > 0 {
		a.shared = make([]byte, slots*sharedBytes)
	}
	if functional {
		a.tids, a.ctaids = make([][3][32]uint32, wpb), make([][3][32]uint32, slots)
		dx, dy, _ := block.dims()
		for lin := range wpb * 32 {
			t := &a.tids[lin/32]
			t[0][lin%32], t[1][lin%32], t[2][lin%32] = uint32(lin%dx), uint32(lin/dx%dy), uint32(lin/(dx*dy))
		}
		for l := range a.laneIDs {
			a.laneIDs[l] = uint32(l)
		}
	}
	for s := 0; s < slots; s++ {
		b := &a.blocks[s]
		b.slot = s
		if sharedBytes > 0 {
			b.shared = a.shared[s*sharedBytes : (s+1)*sharedBytes : (s+1)*sharedBytes]
		}
		for i := 0; i < wpb; i++ {
			wi := s*wpb + i
			w := &a.warps[wi]
			w.regs = a.regs[wi*rows : (wi+1)*rows : (wi+1)*rows]
			w.regReady = a.regReady[wi*k.NumRegs : (wi+1)*k.NumRegs : (wi+1)*k.NumRegs]
			w.regSrc = a.regSrc[wi*k.NumRegs : (wi+1)*k.NumRegs : (wi+1)*k.NumRegs]
			if localBytes > 0 {
				lb := 32 * localBytes
				w.localMem = a.localMem[wi*lb : (wi+1)*lb : (wi+1)*lb]
			}
			// Three-index slicing caps the view so a deeper stack
			// reallocates instead of stomping the neighbor's segment.
			w.stack = a.stacks[wi*stackCap : wi*stackCap : (wi+1)*stackCap]
			if functional {
				t, c := &a.tids[i], &a.ctaids[s]
				w.sregs = [numSpecialRows]*[32]uint32{&t[0], &t[1], &t[2], &c[0], &c[1], &c[2], &a.laneIDs}
			}
		}
		a.freeSlots = append(a.freeSlots, s)
	}
	return a, warpSets{
		awake:   ptrs[n : n : 2*n],
		far:     make([]sleeper, 0, n),
		classes: make([]parkClass, 0, n),
		classAt: make([]int32, (len(k.Insts)+1)*int(NumStalls)),
	}
}

// takeBlock pops a free slot and resets its block for a new CTA at idx.
// The caller launches the warps via resetWarp. Panics if no slot is free
// (the engine only refills after a block retired).
func (a *launchArena) takeBlock(idx, dim Dim3) *blockState {
	s := a.freeSlots[len(a.freeSlots)-1]
	a.freeSlots = a.freeSlots[:len(a.freeSlots)-1]
	b := &a.blocks[s]
	b.idx = idx
	b.dim = dim
	b.liveWarps = 0
	b.barArrived = 0
	b.asyncDone = 0
	b.warps = a.blockWarps[s*a.warpsPerBlock : s*a.warpsPerBlock : (s+1)*a.warpsPerBlock]
	for i := range b.shared {
		b.shared[i] = 0
	}
	if a.ctaids != nil {
		c := &a.ctaids[s]
		for l := range 32 {
			c[0][l], c[1][l], c[2][l] = uint32(idx.X), uint32(idx.Y), uint32(idx.Z)
		}
	}
	return b
}

// releaseBlock returns a retired block's slot to the free stack. The
// memory is reset lazily by the next takeBlock/resetWarp.
func (a *launchArena) releaseBlock(b *blockState) {
	a.freeSlots = append(a.freeSlots, b.slot)
}

// resetWarp re-initializes warp i of block b (slot view selection) to
// the state a warp starts a CTA in: zeroed registers, predicates,
// scoreboard and local memory, empty divergence stack, PC 0, and the
// in-block active-lane mask.
func (a *launchArena) resetWarp(b *blockState, i, gid int) *warp {
	w := &a.warps[b.slot*a.warpsPerBlock+i]
	regs := w.regs
	for j := range regs {
		regs[j] = [32]uint32{}
	}
	ready := w.regReady
	for j := range ready {
		ready[j] = 0
	}
	src := w.regSrc
	for j := range src {
		src[j] = 0
	}
	for j := range w.localMem {
		w.localMem[j] = 0
	}
	w.id = i
	w.gid = gid
	w.block = b
	w.pc = 0
	w.active = 0
	w.stack = w.stack[:0]
	w.done = false
	w.preds = [sass.PT + 1]uint32{sass.PT: ^uint32(0)}
	w.readyAt = 0
	w.waitReason = 0
	w.atBarrier = false
	w.lastStoreDone = 0
	w.cls = wclass{}
	w.clsValid = false
	w.parked = false
	w.stream, w.at, w.memAt = nil, 0, 0
	// Activate only lanes whose linear thread id is inside the block.
	threads := b.dim.Count()
	for lane := 0; lane < 32; lane++ {
		if i*32+lane < threads {
			w.active |= 1 << uint(lane)
		}
	}
	return w
}
