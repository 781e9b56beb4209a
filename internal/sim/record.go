package sim

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/memsys"
	"gpuscout/internal/sass"
)

// maxRecordingBytes bounds what one launch may record; past it the
// launch finishes unrecorded and its caller re-executes instead. The
// largest kernel the benchmark sweeps records 1.8 MB, so 16 MiB covers
// every request of that order while a swept launch at a case-study scale
// (hundreds of MB of accesses) keeps paying in time, not in memory.
const maxRecordingBytes = 16 << 20

// Recording is what one launch did, apart from when: per warp, the
// instructions it retired with their guard masks and, for memory
// instructions, the footprint the memory system saw. It is everything the
// timing model takes from functional execution, so Replay can time the
// same launch on differently sized hardware without a device, registers
// or data. A Recording is immutable; replays may run concurrently.
type Recording struct {
	program
	arch gpu.Arch      // the recorded device's
	sms  []smRecording // one per plan
}

// smRecording is the part of a recording one SM wrote. Which warp a
// stream belongs to does not depend on timing: an SM launches its blocks
// in plan order whenever a slot frees, and hands out warp IDs in launch
// order, so warp gidBase+k is always warp k%warpsPerBlock of the SM's
// block k/warpsPerBlock.
type smRecording struct {
	warps  []warpStream // indexed by gid - gidBase
	bytes  int
	budget int      // this SM's share of maxRecordingBytes
	over   bool     // the budget ran out; the streams were dropped
	lines  []uint64 // the footprint (see complete)
}

type warpStream struct {
	insts []recInst
	mem   []memAccess // of the instructions that accessed memory, in order
}

// recInst is one retired warp instruction: the guard mask it issued
// under and where it left the warp.
type recInst struct {
	mask uint32
	next uint32 // PC index the warp continues at, or recDone
}

const recDone = ^uint32(0)

// add appends the instruction w just executed — under mask, accessing ma
// if not nil — to its stream.
func (r *smRecording) add(w *warp, mask uint32, ma *memAccess) {
	if r.over {
		return
	}
	in := recInst{mask: mask, next: recDone}
	if !w.done {
		in.next = uint32(w.pc / sass.InstBytes)
	}
	s := w.stream
	s.insts = append(s.insts, in)
	r.bytes += int(unsafe.Sizeof(in))
	if ma != nil {
		s.mem = append(s.mem, *ma)
		r.bytes += int(unsafe.Sizeof(*ma))
	}
	if r.bytes > r.budget {
		r.over = true
		clear(r.warps)
	}
}

// next is exec for a replayed warp about to issue d: it moves w past its
// next recorded instruction and returns that instruction's guard mask
// and, if it accessed memory, the access.
func (w *warp) next(d *decoded) (mask uint32, ma *memAccess) {
	s := w.stream
	in := s.insts[w.at]
	w.at++
	if w.done = in.next == recDone; !w.done {
		w.pc = uint64(in.next) * sass.InstBytes
	}
	// Exactly the memory instructions decode a width, and exec reports an
	// access when at least one lane ran.
	if d.mem.width != 0 && in.mask != 0 {
		ma = &s.mem[w.memAt]
		w.memAt++
	}
	return in.mask, ma
}

// replayable reports whether the kernel's instruction stream is the same
// under every timing. In a race-free kernel the order in which warps run
// reaches a value only through what an atomic returns, so a recording is
// refused when some instruction can read the register an ATOM or ATOMS
// wrote — a mask or an address could then depend on it.
func replayable(code []decoded) bool {
	for i := range code {
		if a := &code[i]; a.mem.atomic && a.words != 0 && readsBeforeOverwrite(code, i+1, a.reg) {
			return false
		}
	}
	return true
}

// readsBeforeOverwrite reports whether, on some path from instruction
// from, reg is read before an unguarded instruction overwrites it. Every
// lane follows one such path and executes the unguarded instructions on
// it, so false means no lane ever sees the value reg held at from. Paths
// over-approximate control flow: every instruction may fall through.
func readsBeforeOverwrite(code []decoded, from int, reg sass.Reg) bool {
	seen := make([]bool, len(code))
	for work := []int{from}; len(work) > 0; {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if i >= len(code) || seen[i] {
			continue
		}
		seen[i] = true
		d := &code[i]
		if slices.Contains(d.dep[:len(d.dep)-len(d.dst)], reg) {
			return true
		}
		if d.in.Op == sass.OpBRA {
			work = append(work, int(d.in.Target/sass.InstBytes))
		}
		if d.in.Pred != sass.PT || d.in.PredNeg || !slices.Contains(d.dst, reg) {
			work = append(work, i+1)
		}
	}
	return false
}

// complete returns r if every SM kept its streams, else nil, taking each
// SM's footprint: the L1 lines its global, local and texture accesses
// touched (all its L1 and L2 slice can have held), sorted and distinct.
func (r *Recording) complete() *Recording {
	if r == nil {
		return nil
	}
	for i := range r.sms {
		sm := &r.sms[i]
		if sm.over {
			return nil
		}
		var bases []uint64
		var seen [256]uint64 // 1 + a line recently kept, by line mod 256: most repeats stop here
		for _, ws := range sm.warps {
			for j := range ws.mem {
				if ma := &ws.mem[j]; ma.space != sass.ClassShared && ma.space != sass.ClassConst {
					bases = memsys.CoalesceSectorsInto(bases, r.arch.L1LineBytes, ma.addrs[:], ma.mask, ma.width)
					for _, b := range bases {
						if l := b / uint64(r.arch.L1LineBytes); seen[l%256] != l+1 {
							seen[l%256] = l + 1
							sm.lines = append(sm.lines, l)
						}
					}
				}
			}
		}
		slices.Sort(sm.lines)
		sm.lines = slices.Clip(slices.Compact(sm.lines))
	}
	return r
}

// Inert reports whether Replay(ctx, arch) is proved to return what a
// replay on the recorded arch does: arch may differ from it in SharedBanks
// if no shared access changes its cost (nothing else reads them), and in
// L1Bytes and L2Bytes if on every SM both geometries of that cache (or L2
// slice) fit the footprint. Any other difference is refused.
func (r *Recording) Inert(arch gpu.Arch) bool {
	was := r.arch
	was.L1Bytes, was.L2Bytes, was.SharedBanks = arch.L1Bytes, arch.L2Bytes, arch.SharedBanks
	if was != arch {
		return false
	}
	l1, l2 := caches(&r.arch)
	pl1, pl2 := caches(&arch)
	var banks memsys.BankScratch
	for i := range r.sms {
		sm := &r.sms[i]
		if l1 != pl1 && !(l1.Fits(sm.lines) && pl1.Fits(sm.lines)) ||
			l2 != pl2 && !(l2.LineBytes == l1.LineBytes && l2.Fits(sm.lines) && pl2.Fits(sm.lines)) {
			return false
		}
		for _, ws := range sm.warps {
			for j := range ws.mem {
				if ma := &ws.mem[j]; ma.space == sass.ClassShared && arch.SharedBanks != r.arch.SharedBanks &&
					sharedTrans(&banks, r.arch.SharedBanks, ma) != sharedTrans(&banks, arch.SharedBanks, ma) {
					return false
				}
			}
		}
	}
	return true
}

// Record is LaunchContext that also returns the launch's Recording. The
// recording is nil, with the launch itself unaffected, when the kernel's
// instruction stream could depend on timing (see replayable) or the
// streams outgrew maxRecordingBytes.
func Record(ctx context.Context, dev *Device, spec LaunchSpec, cfg Config) (*Result, *Recording, error) {
	return launch(ctx, dev, spec, cfg, true)
}

// Replay simulates the recorded launch on arch and returns what
// LaunchContext would on a device of that architecture, at the cost of
// the scheduler and memory-system model alone. arch may differ from the
// recorded device's in anything the functional core, the block
// distribution and occupancy do not read — every field a
// gpu.Perturbation moves.
func (r *Recording) Replay(ctx context.Context, arch gpu.Arch) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultinject.Hit(siteLaunch); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	occ, err := gpu.ComputeOccupancy(arch, r.kernel.NumRegs, r.kernel.SharedBytes, r.block.Count())
	if err != nil || occ != r.occ || arch.NumSMs != r.arch.NumSMs || arch.DRAMBytes != r.arch.DRAMBytes {
		return nil, fmt.Errorf("sim: a recording of %s on %s cannot replay on %s: occupancy, SM count or memory size differ", r.kernel.Name, r.arch.SM, arch.SM)
	}
	e := &engine{program: r.program, ctx: ctx, arch: arch, rec: r, replay: true}
	return e.run()
}
