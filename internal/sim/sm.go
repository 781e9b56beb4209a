package sim

import (
	"math"
	"math/bits"
	"slices"

	"gpuscout/internal/memsys"
	"gpuscout/internal/sass"
)

// queueRing tracks completion times of in-flight operations in an issue
// queue (LG / MIO / TEX). Entries whose completion is in the past no
// longer occupy a slot. Issue queues stay within a few entries of their
// depth (classify stops issue once one is full), so linear scans are
// cheap here; MSHR occupancy, which overfills by orders of magnitude,
// uses mshrTracker.
type queueRing struct {
	times []float64
}

func (q *queueRing) push(t float64) { q.times = append(q.times, t) }

// inflight counts entries still pending at time now, compacting as a side
// effect.
func (q *queueRing) inflight(now float64) int {
	n := 0
	for _, t := range q.times {
		if t > now {
			q.times[n] = t
			n++
		}
	}
	q.times = q.times[:n]
	return n
}

// earliest returns the soonest completion among pending entries.
func (q *queueRing) earliest() float64 {
	e := math.Inf(1)
	for _, t := range q.times {
		if t < e {
			e = t
		}
	}
	return e
}

// mshrTracker models MSHR admission for one L1 miss path: a miss that
// finds all capacity slots busy waits for the soonest completion that
// frees one. It keeps only the capacity largest completion times ever
// pushed, as a min-heap, so admit and push are O(log capacity) and memory
// is O(capacity) however far the miss stream runs ahead of the slots.
//
// With n entries pending at now (completion > now), a full unit admits at
// the (n-capacity+1)-th smallest pending time, i.e. the capacity-th
// largest. At least capacity entries are pending exactly when the heap is
// full and its minimum is > now; the capacity largest times ever pushed
// are then all pending, so that order statistic is the heap minimum.
//
// Precondition: successive admit calls see non-decreasing now. (An entry
// the heap evicted could otherwise become "pending" again for an earlier
// now.) It holds because now is always the return value of the pipe's own
// memsys.Bandwidth.Request, whose busy horizon only moves forward.
type mshrTracker struct {
	heap     []float64 // min-heap of the capacity largest completion times
	capacity int
}

// admit returns the earliest time >= now at which a new miss finds a
// free slot.
func (m *mshrTracker) admit(now float64) float64 {
	if len(m.heap) < m.capacity || m.heap[0] <= now {
		return now
	}
	return m.heap[0]
}

// push records a miss completing at t.
func (m *mshrTracker) push(t float64) {
	h := m.heap
	i := len(h)
	if i < m.capacity {
		// Not full: append and sift up.
		h = append(h, t)
		for i > 0 {
			parent := (i - 1) / 2
			if h[parent] <= t {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = t
		m.heap = h
		return
	}
	if t <= h[0] {
		return // not among the capacity largest
	}
	// Replace the minimum and sift down.
	i = 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[c] >= t {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = t
}

// smState is the timing state of one simulated streaming multiprocessor.
// Everything an SM mutates during simulation lives here (or in its warps
// and blocks), so sampled SMs can run on separate goroutines and merge
// deterministically afterwards.
type smState struct {
	id  int
	now float64

	// counters accumulates this SM's events; LaunchContext merges the
	// per-SM instances in SM-ID order.
	counters *Counters
	// nextGid is the next global warp index, seeded per SM (gidBase) so
	// parallel runs assign the same IDs a sequential pass would.
	gidBase, nextGid int
	// rec is this SM's part of the recording the launch writes or replays.
	rec *smRecording

	l1   *memsys.Cache     // unified L1TEX data cache (global/local/texture)
	l2   *memsys.Cache     // this SM's slice of the chip L2
	lsu  *memsys.Bandwidth // LSU sector wavefront service
	texu *memsys.Bandwidth // TEX unit sector service
	mio  *memsys.Bandwidth // shared-memory transaction service
	l2bw *memsys.Bandwidth // L2 slice bandwidth
	dram *memsys.Bandwidth // DRAM bandwidth slice

	lgQ, mioQ, texQ  queueRing
	lsuMiss, texMiss mshrTracker // outstanding L1 misses (MSHR occupancy)

	fp64Free float64
	sfuFree  float64
	atomFree float64

	// arena owns all warp/block backing memory for this SM; block slots
	// are recycled (reset, not reallocated) as CTAs retire and pending
	// ones launch.
	arena *launchArena

	// warps lists live (not yet done) warps in global-warp-ID order. Done
	// warps are compacted out at the top of the scheduler loop, never
	// mid-iteration, so snapshots taken by the loop stay valid.
	warps       []*warp
	needCompact bool
	pending     []Dim3 // block indices not yet launched

	lastPick [8]*warp // per-scheduler greedy pointer (GTO)

	// Dense hot-path counters, folded into the exported Counters maps
	// once at the end of runSM. pcStalls is indexed by instruction index
	// (pc / InstBytes) with one extra slot for the synthetic
	// past-the-end reconvergence PC; opcodeDyn by opcode value.
	pcStalls  []Stalls
	opcodeDyn []uint64

	// Reusable scratch for the memory timing path.
	wordBuf []uint64
	banks   memsys.BankScratch
}

// addStall attributes dt warp-cycles of stall reason `reason` at pc in
// the dense per-instruction slice.
func (sm *smState) addStall(pc uint64, reason Stall, dt float64) {
	sm.counters.StallCycles[reason] += dt
	idx := int(pc / sass.InstBytes)
	if idx >= len(sm.pcStalls) {
		idx = len(sm.pcStalls) - 1
	}
	sm.pcStalls[idx][reason] += dt
}

// foldDense materializes the dense stall/opcode counters into the
// exported Counters maps — once per launch, in instruction order, with a
// key only for a PC or opcode that was touched.
func (sm *smState) foldDense() {
	for idx := range sm.pcStalls {
		if sm.pcStalls[idx] == (Stalls{}) {
			continue
		}
		dst := new(Stalls)
		*dst = sm.pcStalls[idx]
		sm.counters.PCStalls[uint64(idx)*sass.InstBytes] = dst
	}
	for op, n := range sm.opcodeDyn {
		if n != 0 {
			sm.counters.OpcodeDyn[sass.Opcode(op)] = n
		}
	}
}

// classification of one warp at one instant.
type wclass struct {
	reason   Stall
	event    float64 // when the condition may clear (+Inf if externally driven)
	eligible bool
	pc       uint64
}

// classify determines whether warp w can issue now, and if not, why and
// until when. This function is both the scheduler's eligibility test and
// the source of stall attribution (and hence of PC sampling data).
func (e *engine) classify(sm *smState, w *warp) wclass {
	if w.atBarrier {
		return wclass{reason: StallBarrier, event: math.Inf(1), pc: w.pc}
	}
	if w.readyAt > sm.now {
		return wclass{reason: w.waitReason, event: w.readyAt, pc: w.pc}
	}
	idx := int(w.pc / sass.InstBytes)
	if idx >= len(e.code) {
		// The warp ran past the last instruction (a path without EXIT):
		// it never issues again and the launch ends in the deadlock error.
		return wclass{reason: StallDrain, event: math.Inf(1), pc: w.pc}
	}
	d := &e.code[idx]
	in := d.in

	// Register dependencies (dynamic scoreboard).
	var blockUntil float64
	var blockClass sass.Class
	blocked := false
	for _, r := range d.dep {
		if int(r) < len(w.regReady) && w.regReady[r] > sm.now {
			if !blocked || w.regReady[r] > blockUntil {
				blockUntil = w.regReady[r]
				blockClass = w.regSrc[r]
			}
			blocked = true
		}
	}
	if blocked {
		return wclass{reason: stallForClass(blockClass), event: blockUntil, pc: w.pc}
	}

	// Structural hazards.
	a := &e.arch
	switch sass.ClassOf(in.Op) {
	case sass.ClassGlobal, sass.ClassLocal:
		if sm.lgQ.inflight(sm.now) >= a.LGQueueDepth {
			return wclass{reason: StallLGThrottle, event: sm.lgQ.earliest(), pc: w.pc}
		}
	case sass.ClassShared:
		if sm.mioQ.inflight(sm.now) >= a.MIOQueueDepth {
			return wclass{reason: StallMIOThrottle, event: sm.mioQ.earliest(), pc: w.pc}
		}
	case sass.ClassTexture:
		if sm.texQ.inflight(sm.now) >= a.TEXQueueDepth {
			return wclass{reason: StallTexThrottle, event: sm.texQ.earliest(), pc: w.pc}
		}
	case sass.ClassFP64:
		if sm.fp64Free > sm.now {
			return wclass{reason: StallMathPipeThrottle, event: sm.fp64Free, pc: w.pc}
		}
	case sass.ClassSFU:
		if sm.sfuFree > sm.now {
			return wclass{reason: StallMathPipeThrottle, event: sm.sfuFree, pc: w.pc}
		}
	}
	if in.Op == sass.OpEXIT && w.lastStoreDone > sm.now {
		return wclass{reason: StallDrain, event: w.lastStoreDone, pc: w.pc}
	}
	return wclass{reason: StallSelected, eligible: true, event: sm.now, pc: w.pc}
}

// stallForClass maps the producing pipe of a pending register to the
// dependent warp's stall reason.
func stallForClass(c sass.Class) Stall {
	switch c {
	case sass.ClassGlobal, sass.ClassLocal, sass.ClassTexture:
		return StallLongScoreboard
	case sass.ClassShared:
		return StallShortScoreboard
	default:
		return StallWait
	}
}

// issue executes one instruction for warp w and applies its timing
// effects. What the instruction did — the lanes it ran on, where it left
// the warp, the words of the memory it touched — comes from exec or, in a
// replay, from the warp's recorded stream; that is the only difference
// between the two, and everything from here down is the timing model they
// share.
func (e *engine) issue(sm *smState, w *warp) error {
	at := int(w.pc / sass.InstBytes)
	d := &e.code[at]
	in := d.in
	var execMask uint32
	var words []uint64 // the instruction's memory access (see words), if it made one
	if e.replay {
		execMask, words = w.next(d)
	} else {
		var live memAccess
		execMask = w.guardMask(in)
		if err := e.exec(w, d, execMask, &live); err != nil {
			return err
		}
		if d.accesses(execMask) {
			words = e.words(sm, &live)
		}
		if w.stream != nil {
			sm.rec.add(w, at, d, execMask, words)
		}
	}

	c := sm.counters
	c.WarpInsts++
	c.ThreadInsts += uint64(bits.OnesCount32(execMask))
	sm.opcodeDyn[in.Op]++

	a := &e.arch
	w.readyAt = sm.now + 1
	w.waitReason = StallWait

	switch in.Op {
	case sass.OpBRA:
		w.readyAt = sm.now + 2
		w.waitReason = StallBranchResolving
	case sass.OpBAR:
		if !w.done {
			w.atBarrier = true
			w.block.barArrived++
			e.checkBarrier(sm, w.block)
		}
	case sass.OpEXIT:
		if w.done {
			e.retireWarp(sm, w)
		}
	}

	if d.accesses(execMask) {
		e.memTiming(sm, w, d, execMask, words)
		return nil
	}

	// Fixed-latency results.
	if in.Op == sass.OpSHFL {
		// Shuffles execute on the MIO pipe on Volta: consumers see a
		// short-scoreboard dependency.
		svc := sm.mio.Request(sm.now, 1)
		e.setDstReady(sm, w, d, (svc-sm.now)+float64(a.SharedLatency), sass.ClassShared)
		return nil
	}
	switch sass.ClassOf(in.Op) {
	case sass.ClassALU:
		e.setDstReady(sm, w, d, float64(a.ALULatency), sass.ClassALU)
	case sass.ClassFP64:
		sm.fp64Free = sm.now + float64(a.FP64IssueRate)
		e.setDstReady(sm, w, d, float64(a.FP64Latency), sass.ClassALU)
	case sass.ClassSFU:
		sm.sfuFree = sm.now + float64(a.SFUIssueRate)
		e.setDstReady(sm, w, d, float64(a.SFULatency), sass.ClassALU)
	}
	return nil
}

func (e *engine) setDstReady(sm *smState, w *warp, d *decoded, latency float64, src sass.Class) {
	for _, r := range d.dst {
		if int(r) < len(w.regReady) {
			w.regReady[r] = sm.now + latency
			w.regSrc[r] = src
		}
	}
}

// words is what the timing model reads of a live access, and what a
// recording keeps of it (in sm's scratch, valid until the next call):
//   - global, local and texture: the distinct sectors, in first-touch order;
//   - shared: the MIO transactions it costs on the launch's banks, then the
//     active lanes' addresses in lane order — each once unless atomic: the
//     conflict counts ignore lanes and only the atomic one counts repeats,
//     so a replay on other banks counts again from these;
//   - constant: none.
func (e *engine) words(sm *smState, ma *memAccess) []uint64 {
	switch ma.space {
	case sass.ClassConst:
		return nil
	case sass.ClassShared:
		words := append(sm.wordBuf[:0], 0)
		for m := ma.mask; m != 0; m &= m - 1 {
			if a := ma.addrs[bits.TrailingZeros32(m)]; ma.atomic || !slices.Contains(words[1:], a) {
				words = append(words, a)
			}
		}
		words[0] = uint64(sharedTrans(&sm.banks, e.arch.SharedBanks, &ma.memDesc, words[1:]))
		sm.wordBuf = words
	default:
		sm.wordBuf = memsys.CoalesceSectorsInto(sm.wordBuf, e.arch.L1SectorBytes, ma.addrs[:], ma.mask, ma.width)
	}
	return sm.wordBuf
}

// memTiming applies the memory-system cost of an access — d under mask,
// as words describes it — and schedules the destination registers'
// availability.
func (e *engine) memTiming(sm *smState, w *warp, d *decoded, mask uint32, words []uint64) {
	a := &e.arch
	c := sm.counters
	now := sm.now
	op := d.in.Op
	md := &d.mem

	switch md.space {
	case sass.ClassGlobal, sass.ClassLocal:
		if md.async {
			e.asyncCopyTiming(sm, w, words)
			return
		}
		var done, svcEnd float64
		if md.atomic {
			// Atomics bypass L1 and resolve at the L2 atomic units. Every
			// active lane is a read-modify-write: lanes hitting the same
			// address serialize fully — the §4.4 global-atomic cost.
			lanes := bits.OnesCount32(mask)
			start := math.Max(now, sm.atomFree)
			sm.atomFree = start + 2*float64(lanes)
			done, svcEnd = now, sm.atomFree
			for _, s := range words {
				lat := e.l2Access(sm, s, true)
				if t := sm.atomFree + lat; t > done {
					done = t
				}
			}
			c.GlobalAtomics += uint64(lanes)
		} else {
			var n, hits uint64
			done, svcEnd, n, hits = e.sectorWalk(sm, md.write, words, sm.lsu, &sm.lsuMiss, float64(a.L1HitLatency), true)
			switch {
			case md.nc:
				c.TexSectors += n
				c.TexSectorHits += hits
			case md.space == sass.ClassGlobal && md.write:
				c.GlobalStSectors += n
			case md.space == sass.ClassGlobal:
				c.GlobalLdSectors += n
				c.GlobalLdSectorHits += hits
			case md.write:
				c.LocalStSectors += n
			default:
				c.LocalLdSectors += n
				c.LocalLdSectorHits += hits
			}
		}
		// The LG instruction queue holds the request until the L1TEX unit
		// accepts it (service), not until data returns — lg_throttle is
		// about issue backlog (§3.2).
		sm.lgQ.push(svcEnd)
		if sass.IsLoad(op) || op == sass.OpATOM {
			e.setDstReady(sm, w, d, done-now, md.space)
		} else if svcEnd > w.lastStoreDone {
			// Stores are posted: the warp may exit once the write is
			// accepted by the memory system, not when it lands in DRAM.
			w.lastStoreDone = svcEnd
		}
		switch op {
		case sass.OpLDG:
			c.GlobalLdInsts++
		case sass.OpSTG:
			c.GlobalStInsts++
		case sass.OpLDL:
			c.LocalLdInsts++
		case sass.OpSTL:
			c.LocalStInsts++
		}

	case sass.ClassShared:
		trans := int(words[0])
		if e.replay && a.SharedBanks != e.rec.arch.SharedBanks {
			trans = sharedTrans(&sm.banks, a.SharedBanks, md, words[1:])
		}
		if md.atomic {
			c.SharedAtomics += uint64(bits.OnesCount32(mask))
		}
		svc := sm.mio.Request(now, trans)
		done := svc + float64(a.SharedLatency)
		sm.mioQ.push(svc)
		if op == sass.OpLDS || op == sass.OpATOMS {
			e.setDstReady(sm, w, d, done-now, sass.ClassShared)
		} else if svc > w.lastStoreDone {
			w.lastStoreDone = svc
		}
		switch op {
		case sass.OpLDS:
			c.SharedLdInsts++
			c.SharedLdTrans += uint64(trans)
		case sass.OpSTS:
			c.SharedStInsts++
			c.SharedStTrans += uint64(trans)
		case sass.OpATOMS:
			c.SharedLdTrans += uint64(trans)
		}

	case sass.ClassTexture:
		done, svcEnd, n, hits := e.sectorWalk(sm, md.write, words, sm.texu, &sm.texMiss, float64(a.TexLatency), true)
		c.TexSectors += n
		c.TexSectorHits += hits
		sm.texQ.push(svcEnd)
		c.TexInsts++
		e.setDstReady(sm, w, d, done-now, sass.ClassTexture)

	case sass.ClassConst:
		// Constant cache: fast uniform path; latency from the arch
		// descriptor.
		lat := float64(a.ISA.ConstLatency)
		if lat <= 0 {
			lat = 8
		}
		e.setDstReady(sm, w, d, lat, sass.ClassALU)
	}
}

// sharedTrans is the MIO transactions (≥ 1) a shared access of kind md
// costs on numBanks banks, lanes holding its addresses as words keeps them.
func sharedTrans(s *memsys.BankScratch, numBanks int, md *memDesc, lanes []uint64) int {
	mask := uint32(1)<<len(lanes) - 1
	if md.atomic {
		// Shared atomics serialize per lane on conflicting banks and words
		// in the MIO pipe (§4.4: cheaper than global, but loads the MIO
		// pipeline).
		return max(s.AtomicConflicts(numBanks, lanes, mask), 1)
	}
	return max(s.BankConflicts(numBanks, lanes, mask, md.width), 1)
}

// sectorWalk sends each of a global, local or texture access's sectors
// through pipe → L1 (unless bypassed) → MSHR admission → L2. It returns
// when the last sector's data is back (done), when the pipe has accepted
// the last sector (svcEnd), and the sector and L1-hit counts for the
// caller's counters. The floats depend only on the state of pipe, sm.l1,
// mshr and the L2/DRAM slices, and those see exactly one call sequence
// per sector, in sector order; nothing else may be interleaved.
func (e *engine) sectorWalk(sm *smState, write bool, sectors []uint64, pipe *memsys.Bandwidth, mshr *mshrTracker, baseLat float64, useL1 bool) (done, svcEnd float64, n, hits uint64) {
	a := &e.arch
	done, svcEnd = sm.now, sm.now
	for _, s := range sectors {
		svc := pipe.Request(sm.now, a.L1SectorBytes)
		if svc > svcEnd {
			svcEnd = svc
		}
		hit := useL1 && sm.l1.AccessSector(s, write)
		lat := baseLat
		if write {
			// Volta's L1 is write-through: every store sector goes to L2
			// regardless of the L1 state (uncoalesced stores therefore
			// hammer L2 bandwidth).
			e.l2Access(sm, s, true)
		} else if !hit {
			// An L1 miss occupies an MSHR until data returns; when all
			// MSHRs are busy the miss waits for a free slot.
			start := mshr.admit(svc)
			lat += (start - svc) + e.l2Access(sm, s, false)
			mshr.push(svc + lat)
		}
		if hit {
			hits++
		}
		if t := svc + lat; t > done {
			done = t
		}
	}
	return done, svcEnd, uint64(len(sectors)), hits
}

// asyncCopyTiming models one cp.async-style LDGSTS: the global read
// bypasses L1 and the register file, each sector going straight to the
// L2/DRAM path while occupying an LSU MSHR, and the warp continues
// immediately — the latency is only observed at the next barrier, which
// waits for the block's outstanding copies (blockState.asyncDone). That
// deferred wait is exactly how cp.async hides global-load stalls.
func (e *engine) asyncCopyTiming(sm *smState, w *warp, sectors []uint64) {
	c := sm.counters
	done, svcEnd, n, _ := e.sectorWalk(sm, false, sectors, sm.lsu, &sm.lsuMiss, 0, false)
	c.AsyncCopySectors += n
	sm.lgQ.push(svcEnd)
	c.AsyncCopyInsts++
	if b := w.block; done > b.asyncDone {
		b.asyncDone = done
	}
	if done > w.lastStoreDone {
		// The copy must land in shared memory before the block can retire
		// even when no barrier follows.
		w.lastStoreDone = done
	}
}

// l2Access models one 32-byte sector request to this SM's L2 slice and,
// on miss, to DRAM. It returns the added latency beyond L1.
func (e *engine) l2Access(sm *smState, sector uint64, write bool) float64 {
	a := &e.arch
	c := sm.counters
	q := sm.l2bw.QueueDelay(sm.now)
	sm.l2bw.Request(sm.now, a.L1SectorBytes)
	hit := sm.l2.AccessSector(sector, write)
	c.L2Sectors++
	if write {
		c.L2WriteSectors++
	} else {
		c.L2ReadSectors++
	}
	lat := q + float64(a.L2HitLatency)
	if hit {
		c.L2Hits++
		return lat
	}
	dq := sm.dram.QueueDelay(sm.now)
	sm.dram.Request(sm.now, a.L1SectorBytes)
	if write {
		c.DRAMWriteBytes += uint64(a.L1SectorBytes)
	} else {
		c.DRAMReadBytes += uint64(a.L1SectorBytes)
	}
	return lat + dq + float64(a.DRAMLatency)
}

// checkBarrier releases a block's barrier when every live warp arrived.
// On async-copy architectures the barrier is also the synchronization
// point for outstanding LDGSTS transfers: warps resume only once the
// block's pending copies have landed in shared memory, and that residual
// wait is attributed to the barrier (the stall cp.async converts
// long-scoreboard time into).
func (e *engine) checkBarrier(sm *smState, b *blockState) {
	if b.liveWarps == 0 || b.barArrived < b.liveWarps {
		return
	}
	release := sm.now + 1
	wait := StallWait
	if b.asyncDone > release {
		release = b.asyncDone
		wait = StallBarrier
	}
	for _, w := range b.warps {
		if w.atBarrier {
			w.atBarrier = false
			w.readyAt = release
			w.waitReason = wait
			w.clsValid = false
		}
	}
	b.barArrived = 0
	b.asyncDone = 0
}

// retireWarp handles warp completion. When the whole block retires its
// arena slot is released; the scheduler loop recycles it for a pending
// CTA at the top of its next iteration (never mid-iteration, so the
// loop's warp-list snapshot stays valid).
func (e *engine) retireWarp(sm *smState, w *warp) {
	b := w.block
	b.liveWarps--
	sm.needCompact = true
	if b.liveWarps > 0 {
		e.checkBarrier(sm, b)
		return
	}
	// Block finished: drop greedy-scheduler pointers into its warps (the
	// structs are about to be recycled for another CTA), then free the
	// slot.
	for i, lp := range sm.lastPick {
		if lp != nil && lp.block == b {
			sm.lastPick[i] = nil
		}
	}
	sm.arena.releaseBlock(b)
}

// launchBlock makes a CTA resident, recycling a free arena slot.
func (e *engine) launchBlock(sm *smState, idx Dim3) {
	nb := sm.arena.takeBlock(idx, e.block)
	warps := sm.arena.warpsPerBlock
	nb.liveWarps = warps
	for i := 0; i < warps; i++ {
		w := sm.arena.resetWarp(nb, i, sm.nextGid)
		if sm.rec != nil {
			w.stream = &sm.rec.warps[w.gid-sm.gidBase]
		}
		sm.nextGid++
		w.readyAt = sm.now
		w.waitReason = StallWait
		nb.warps = append(nb.warps, w)
		sm.warps = append(sm.warps, w)
	}
}
