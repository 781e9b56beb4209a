package sim

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gpuscout/internal/sass"
)

// execMem functionally executes a memory instruction and fills in its
// access descriptor for the timing model. Every memory opcode is an
// address rule (locate, one per space) followed by a word move (one per
// direction: load, store, atomic read-modify-write, async copy).
func (e *engine) execMem(w *warp, d *decoded, execMask uint32, ma *memAccess) error {
	ma.memDesc, ma.mask = d.mem, execMask
	var tex Texture
	if d.mem.space == sass.ClassTexture {
		var err error
		if tex, err = e.dev.texture(int(d.src[2].get(w, 0))); err != nil {
			return err
		}
	}
	le := binary.LittleEndian
	for m := execMask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		mem, err := e.locate(w, d, &tex, lane, &ma.addrs[lane])
		if err != nil {
			return err
		}
		switch {
		case d.mem.async:
			// cp.async-style global→shared copy (sm_80+): data moves from
			// global memory straight into the shared segment, bypassing
			// the register file and L1. The timing model sees the global
			// side (ma.addrs) and tracks completion against the block's
			// barrier.
			shared := w.block.shared
			off, ok := d.sdst.offset(w, lane, d.mem.width, len(shared))
			if !ok {
				return fmt.Errorf("async copy to shared at %d exceeds %d bytes of shared memory", off, len(shared))
			}
			copy(shared[off:], mem)
		case d.mem.atomic:
			v := uint32(d.src[0].get(w, lane))
			if d.mem.space == sass.ClassGlobal {
				// The read-modify-write holds the address's atomic-unit
				// shard lock so concurrently simulated SMs never lose an
				// update.
				mu := e.atomics.lock(ma.addrs[lane])
				mu.Lock()
				v = d.rmw(mem, v)
				mu.Unlock()
			} else {
				v = d.rmw(mem, v)
			}
			if d.words != 0 {
				w.regs[d.reg][lane] = v
			}
		case d.mem.write:
			if d.words == 0 {
				clear(mem) // the stored register is RZ
			}
			for i := 0; i < d.words; i++ {
				le.PutUint32(mem[4*i:], w.regs[d.reg+sass.Reg(i)][lane])
			}
		default:
			for i := 0; i < d.words; i++ {
				w.regs[d.reg+sass.Reg(i)][lane] = le.Uint32(mem[4*i:])
			}
		}
	}
	return nil
}

// rmw applies the atomic's combine to the word at mem with operand v and
// returns the old value.
func (d *decoded) rmw(mem []byte, v uint32) uint32 {
	old := binary.LittleEndian.Uint32(mem)
	binary.LittleEndian.PutUint32(mem, uint32(d.fn(uint64(old), uint64(v), 0)))
	return old
}

// locate applies the address rule of the instruction's space for one lane:
// it returns the width bytes the lane addresses and stores in *taddr the
// address the timing model sees.
func (e *engine) locate(w *warp, d *decoded, tex *Texture, lane int, taddr *uint64) ([]byte, error) {
	width := d.mem.width
	switch d.mem.space {
	case sass.ClassGlobal:
		*taddr = d.addr.base.get(w, lane) + uint64(d.addr.off)
	case sass.ClassTexture:
		x := clamp(int(int32(d.src[0].get(w, lane))), tex.Width)
		y := clamp(int(int32(d.src[1].get(w, lane))), tex.Height)
		*taddr = tex.Base + uint64(y*tex.Width+x)*4

	case sass.ClassLocal:
		localBytes := len(w.localMem) / 32
		off, ok := d.addr.offset(w, lane, width, localBytes)
		if !ok {
			return nil, fmt.Errorf("local access at %d exceeds %d bytes of local memory", off, localBytes)
		}
		// The per-lane global-equivalent address interleaves threads,
		// which is how local memory is physically laid out (coalesced
		// across the warp); this feeds the cache model.
		*taddr = e.localBase + uint64(w.gid)*uint64(32*localBytes) +
			uint64(off)*32 + uint64(lane*4)
		return w.localMem[lane*localBytes+off:][:width], nil
	case sass.ClassShared:
		shared := w.block.shared
		off, ok := d.addr.offset(w, lane, width, len(shared))
		if !ok {
			return nil, fmt.Errorf("shared access at %d exceeds %d bytes of shared memory", off, len(shared))
		}
		*taddr = uint64(off)
		return shared[off:][:width], nil
	default: // sass.ClassConst
		off, ok := d.addr.offset(w, lane, width, len(e.constMem))
		if !ok {
			return nil, fmt.Errorf("LDC offset %#x out of constant bank", off)
		}
		return e.constMem[off:][:width], nil
	}
	return e.dev.lane(*taddr, width)
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}
