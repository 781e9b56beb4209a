package sim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/memsys"
	"gpuscout/internal/sass"
)

// maxRecordingBytes bounds what one launch may record, counted as the
// capacity its streams hold; past it the launch finishes unrecorded and
// its caller re-executes instead. The largest kernel the benchmark sweeps
// holds 0.66 MB (sgemm_shared@128 on sm_70, two sampled SMs), so 16 MiB
// covers every request of that order while a swept launch at a
// case-study scale (hundreds of MB of accesses) keeps paying in time, not
// in memory.
const maxRecordingBytes = 16 << 20

// Recording is what one launch did, apart from when: per warp, the
// instructions it retired with their guard masks and, for memory
// instructions, the words the timing model read (engine.words). It is
// everything the timing model takes from functional execution, so Finish
// can time the same launch on differently sized hardware without a
// device, registers or data. A Recording is immutable; Finish calls may
// run concurrently.
type Recording struct {
	program
	arch gpu.Arch      // the recorded device's
	sms  []smRecording // one per plan

	mu     sync.Mutex
	lowest int        // 1 + the lowest index of an SM sealed so far, 0 for none; under mu
	free   []*smState // replayed SMs' state, for the next Finish to reset; under mu
}

// smRecording is the part of a recording one SM wrote. Which warp a
// stream belongs to does not depend on timing: an SM launches its blocks
// in plan order whenever a slot frees, and hands out warp IDs in launch
// order, so warp gidBase+k is always warp k%warpsPerBlock of the SM's
// block k/warpsPerBlock.
type smRecording struct {
	warps  []warpStream // indexed by gid - gidBase
	bytes  int          // Σ warpStream.bytes: what the budget charges
	budget int          // this SM's share of maxRecordingBytes
	over   bool         // the budget ran out; the streams were dropped
	finish float64      // the SM's finish cycle (see seal)
	lines  []uint64     // the footprint (see seal)
	// Whether the recorded L1 and L2 slice fit the footprint (see inert).
	l1Fits, l2Fits bool
	twin           int // the SM whose streams these are, lines[k] renamed image[k] (see match), or this one
	image          []uint64
}

type warpStream struct {
	insts []recInst
	mem   []recMem // of the instructions that accessed memory, in order
	words []uint64 // every access's words (see engine.words), back to back
}

// recMem is one recorded memory access: the PC index of its instruction,
// whose decoded descriptor says what the access was, and where its words
// end (they start where the previous access's end).
type recMem struct{ at, end uint32 }

// access returns the stream's j-th access: its instruction's PC index and
// its words.
func (s *warpStream) access(j int) (at uint32, words []uint64) {
	var start uint32
	if j > 0 {
		start = s.mem[j-1].end
	}
	return s.mem[j].at, s.words[start:s.mem[j].end]
}

// bytes is the heap the stream holds: its slices' capacity, not their
// length, because that is what an append grows.
func (s *warpStream) bytes() int {
	return cap(s.insts)*int(unsafe.Sizeof(recInst{})) + cap(s.mem)*int(unsafe.Sizeof(recMem{})) +
		cap(s.words)*int(unsafe.Sizeof(uint64(0)))
}

// recInst is one retired warp instruction: the guard mask it issued
// under and where it left the warp.
type recInst struct {
	mask uint32
	next uint32 // PC index the warp continues at, or recDone
}

const recDone = ^uint32(0)

// add appends the instruction w just executed — code[at], under mask,
// with the words of its access if it made one — to its stream, and
// charges the budget what the stream's slices grew by.
func (r *smRecording) add(w *warp, at int, d *decoded, mask uint32, words []uint64) {
	if r.over {
		return
	}
	in := recInst{mask: mask, next: recDone}
	if !w.done {
		in.next = uint32(w.pc / sass.InstBytes)
	}
	s := w.stream
	held := s.bytes()
	s.insts = append(s.insts, in)
	if d.accesses(mask) {
		s.words = append(s.words, words...)
		s.mem = append(s.mem, recMem{at: uint32(at), end: uint32(len(s.words))})
	}
	if r.bytes += s.bytes() - held; r.bytes > r.budget {
		r.over = true
		clear(r.warps)
	}
}

// next is exec for a replayed warp about to issue d: it moves w past its
// next recorded instruction and returns that instruction's guard mask
// and, if it accessed memory, the access's words.
func (w *warp) next(d *decoded) (mask uint32, words []uint64) {
	s := w.stream
	in := s.insts[w.at]
	w.at++
	if w.done = in.next == recDone; !w.done {
		w.pc = uint64(in.next) * sass.InstBytes
	}
	if d.accesses(in.mask) {
		_, words = s.access(w.memAt)
		w.memAt++
	}
	return in.mask, words
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

// seal ends SM i's part of the recording, the SM having finished at now:
// unless the budget ran out it keeps now, the SM's footprint — the L1
// lines, sorted and distinct, of the sectors its global, local and
// texture accesses touched (all its L1 and L2 slice can have held) — and
// whether the recorded caches fit it, which every inert call asks.
func (r *Recording) seal(i int, now float64) bool {
	sm := &r.sms[i]
	if sm.over {
		return false
	}
	sm.finish = now
	var seen [256]uint64 // 1 + a line recently kept, by line mod 256: most repeats stop here
	for _, ws := range sm.warps {
		for j := range ws.mem {
			at, sectors := ws.access(j)
			if sp := r.code[at].mem.space; sp == sass.ClassShared || sp == sass.ClassConst {
				continue
			}
			for _, s := range sectors {
				if l := s / uint64(r.arch.L1LineBytes); seen[l%256] != l+1 {
					seen[l%256] = l + 1
					sm.lines = append(sm.lines, l)
				}
			}
		}
	}
	slices.Sort(sm.lines)
	sm.lines = slices.Clip(slices.Compact(sm.lines))
	l1, l2 := memsys.SMCaches(&r.arch)
	sm.l1Fits = l1.Fits(sm.lines)
	sm.l2Fits = l2.LineBytes == l1.LineBytes && l2.Fits(sm.lines)
	sm.twin = i
	r.mu.Lock()
	rep := r.lowest - 1
	if rep < 0 || i < rep {
		r.lowest = i + 1
	}
	r.mu.Unlock()
	if rep >= 0 {
		r.match(i, rep)
	}
	return true
}

// match makes sealed SM i the twin of SM j when j's streams are i's with
// every global, local and texture line renamed, one to one, to a line of
// i's at the same offsets within it, and all else equal.
func (r *Recording) match(j, i int) {
	a, b := &r.sms[j], &r.sms[i]
	if len(a.warps) != len(b.warps) || len(a.lines) != len(b.lines) {
		return
	}
	image := make([]uint64, len(a.lines))                       // 1 + the renamed line, 0 while unmapped
	shift := uint(bits.TrailingZeros(uint(r.arch.L1LineBytes))) // a power of two, as the caches require
	var memo [64][2]uint64                                      // 1 + a line looked up and its index, by line mod 64
	for w := range a.warps {
		x, y := &a.warps[w], &b.warps[w]
		if !slices.Equal(x.insts, y.insts) || !slices.Equal(x.mem, y.mem) {
			return
		}
		for m := range x.mem {
			at, sx := x.access(m)
			_, sy := y.access(m)
			if sp := r.code[at].mem.space; sp == sass.ClassShared || sp == sass.ClassConst {
				if !slices.Equal(sx, sy) {
					return
				}
				continue
			}
			for k, s := range sx {
				if (s^sy[k])<<(64-shift) != 0 { // another offset within the line
					return
				}
				if m := &memo[s>>shift%64]; m[0] != s>>shift+1 {
					i, _ := slices.BinarySearch(a.lines, s>>shift)
					*m = [2]uint64{s>>shift + 1, uint64(i)}
				}
				if p := memo[s>>shift%64][1]; image[p] == 0 {
					image[p] = sy[k]>>shift + 1
				} else if image[p] != sy[k]>>shift+1 {
					return
				}
			}
		}
	}
	for k := range image {
		image[k]--
	}
	sorted := slices.Clone(image)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) == len(b.lines) {
		a.twin, a.image = i, image // one to one, so onto b.lines
	}
}

// Twin returns the SM, sealed before SM j, whose replay on arch j's is
// proved to repeat bit for bit, or j itself: match's renaming is invisible
// when both SMs' warps fall to the same schedulers, both caches cut the
// recorded lines, and each meets the renamed lines alike (DESIGN §8).
func (r *Recording) Twin(arch gpu.Arch, j int) int {
	sm := &r.sms[j]
	i := sm.twin
	if i == j || (r.plans[j].gidBase-r.plans[i].gidBase)%schedulers(&arch) != 0 || arch.L1LineBytes != r.arch.L1LineBytes {
		return j
	}
	l1, l2 := memsys.SMCaches(&arch)
	if l2.LineBytes != l1.LineBytes || !l1.Renames(sm.lines, sm.image) || !l2.Renames(sm.lines, sm.image) {
		return j
	}
	return i
}

// inert reports whether SM i's replay on arch is proved to finish when
// the recorded SM did (SMs share no timing state): arch may differ from
// the recorded arch in SharedBanks if none of the SM's shared accesses
// changes its cost (nothing else reads them), and in L1Bytes and L2Bytes
// if both geometries of that cache (or L2 slice) fit the SM's footprint.
// Any other difference is refused. A shared access's cost on the recorded
// banks is the count its words begin with.
func (r *Recording) inert(arch gpu.Arch, i int) bool {
	was := r.arch
	was.L1Bytes, was.L2Bytes, was.SharedBanks = arch.L1Bytes, arch.L2Bytes, arch.SharedBanks
	if was != arch {
		return false
	}
	l1, l2 := memsys.SMCaches(&r.arch)
	pl1, pl2 := memsys.SMCaches(&arch)
	sm := &r.sms[i]
	if l1 != pl1 && !(sm.l1Fits && pl1.Fits(sm.lines)) || l2 != pl2 && !(sm.l2Fits && pl2.Fits(sm.lines)) {
		return false
	}
	var banks memsys.BankScratch
	for _, ws := range sm.warps {
		for j := range ws.mem {
			at, words := ws.access(j)
			if md := &r.code[at].mem; md.space == sass.ClassShared && arch.SharedBanks != r.arch.SharedBanks &&
				uint64(sharedTrans(&banks, arch.SharedBanks, md, words[1:])) != words[0] {
				return false
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

type recordedKey struct{}

// WithRecorded attaches fn to ctx: Record under it calls fn(rec, i) on SM
// i's goroutine once that SM's part of rec is final and within budget, so
// Finish(_, _, i) may run while later SMs record. The launch may still
// end unrecorded (another SM over budget, a failure). fn must not block.
func WithRecorded(ctx context.Context, fn func(rec *Recording, i int)) context.Context {
	return context.WithValue(ctx, recordedKey{}, fn)
}

// Finish returns the cycle SM i finishes at when the recorded launch runs
// on a device of architecture arch — what LaunchContext there would report
// as SMFinish[i] — at the cost of the scheduler and memory-system model
// alone, replaying SM i by itself. Where inert's proof holds for the SM it
// returns the recorded finish with no replay and no pass through
// sim.launch's fault site. arch may differ from the recorded device's in
// anything the functional core, the block distribution and occupancy do
// not read — every field a gpu.Perturbation moves — but in its sector
// size, which the recorded sectors are cut at. An ended ctx fails Finish,
// proved SM or not, as it fails a replay on its first scheduler round.
func (r *Recording) Finish(ctx context.Context, arch gpu.Arch, i int) (cycles float64, replayed bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, false, fmt.Errorf("sim: kernel %s aborted on SM %d: %w", r.kernel.Name, i, err)
	}
	if r.inert(arch, i) {
		return r.sms[i].finish, false, nil
	}
	e, err := r.replayOn(ctx, arch)
	if err != nil {
		return 0, true, err
	}
	e.cyclesOnly = true
	r.mu.Lock()
	var old *smState
	if n := len(r.free); n > 0 {
		old, r.free = r.free[n-1], r.free[:n-1]
	}
	r.mu.Unlock()
	sm := e.newSM(i, old)
	err = e.runSM(e.ctx, sm, r.plans[i].blocks)
	cycles = sm.now
	r.mu.Lock()
	r.free = append(r.free, sm)
	r.mu.Unlock()
	return cycles, true, err
}

// replayOn is the engine replaying r on arch, past sim.launch's fault
// site and the checks that arch can time the recording.
func (r *Recording) replayOn(ctx context.Context, arch gpu.Arch) (*engine, error) {
	if err := faultinject.Hit(siteLaunch); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	occ, err := gpu.ComputeOccupancy(arch, r.kernel.NumRegs, r.kernel.SharedBytes, r.block.Count())
	if err != nil || occ != r.occ || arch.NumSMs != r.arch.NumSMs || arch.DRAMBytes != r.arch.DRAMBytes || arch.L1SectorBytes != r.arch.L1SectorBytes {
		return nil, fmt.Errorf("sim: a recording of %s on %s cannot replay on %s: occupancy, SM count, memory size or sector size differ", r.kernel.Name, r.arch.SM, arch.SM)
	}
	return &engine{program: r.program, ctx: ctx, arch: arch, rec: r, replay: true}, nil
}

// SMs is how many SMs the recording holds a part of: Finish's range.
func (r *Recording) SMs() int { return len(r.sms) }
