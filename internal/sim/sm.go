package sim

import (
	"math"
	"math/bits"
	"slices"

	"gpuscout/internal/memsys"
	"gpuscout/internal/sass"
)

// queueRing tracks completion times of in-flight operations in an issue
// queue (LG / MIO / TEX), ascending in ring[head..head+n) (indices mod its
// power-of-two length, doubled when full): entries whose completion is
// past are a prefix, dropped, and push inserts from the tail (DESIGN §8).
type queueRing struct {
	ring    []float64
	head, n int
}

func (q *queueRing) push(t float64) {
	if q.n == len(q.ring) {
		grown := make([]float64, max(2*len(q.ring), 8))
		for k := range q.n {
			grown[k] = q.ring[(q.head+k)&(len(q.ring)-1)]
		}
		q.ring, q.head = grown, 0
	}
	wrap := len(q.ring) - 1
	i := q.head + q.n
	for ; i > q.head && q.ring[(i-1)&wrap] > t; i-- {
		q.ring[i&wrap] = q.ring[(i-1)&wrap]
	}
	q.ring[i&wrap] = t
	q.n++
}

// drop removes the head.
func (q *queueRing) drop() {
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
}

// inflight counts entries still pending at time now (> now), dropping the
// rest; successive calls see non-decreasing now.
func (q *queueRing) inflight(now float64) int {
	for q.n > 0 && q.ring[q.head] <= now {
		q.drop()
	}
	return q.n
}

// earliest returns the soonest completion among pending entries.
func (q *queueRing) earliest() float64 {
	if q.n == 0 {
		return math.Inf(1)
	}
	return q.ring[q.head]
}

// mshrTracker models MSHR admission for one L1 miss path: a miss that
// finds all capacity slots busy waits for the soonest completion that
// frees one. It keeps only the capacity largest completion times ever
// pushed, ascending in a queueRing, so memory is O(capacity) however far
// the miss stream runs ahead of the slots.
//
// With n entries pending at now (completion > now), a full unit admits at
// the (n-capacity+1)-th smallest pending time, i.e. the capacity-th
// largest. At least capacity entries are pending exactly when the ring is
// full and its head (its minimum) is > now; the capacity largest times
// ever pushed are then all pending, so that order statistic is the head.
//
// A miss completes at its pipe service time plus a latency, and service
// times only move forward, so a push usually lands at or near the tail:
// push drops the head when full and inserts from the tail, O(1) for an
// in-order push and O(capacity) at worst.
//
// Precondition: successive admit calls see non-decreasing now. (An entry
// the ring dropped could otherwise become "pending" again for an earlier
// now.) It holds because now is always the return value of the pipe's own
// memsys.Bandwidth.Request, whose busy horizon only moves forward.
type mshrTracker struct {
	queueRing
	capacity int
}

// admit returns the earliest time >= now at which a new miss finds a
// free slot.
func (m *mshrTracker) admit(now float64) float64 {
	if m.n < m.capacity || m.ring[m.head] <= now {
		return now
	}
	return m.ring[m.head]
}

// push records a miss completing at t.
func (m *mshrTracker) push(t float64) {
	if m.ring == nil {
		m.ring = make([]float64, 1<<bits.Len(uint(m.capacity-1)))
	}
	if m.n == m.capacity {
		if t <= m.ring[m.head] {
			return // not among the capacity largest
		}
		m.drop()
	}
	m.queueRing.push(t)
}

// smState is the timing state of one simulated streaming multiprocessor.
// Everything an SM mutates during simulation lives here (or in its warps
// and blocks), so sampled SMs can run on separate goroutines and merge
// deterministically afterwards.
type smState struct {
	id  int
	now float64

	// counters accumulates this SM's events; LaunchContext merges the
	// per-SM instances in SM-ID order. In a cycles-only replay no stall
	// is attributed and counters has no PCStalls.
	counters   *Counters
	cyclesOnly bool
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

	// warpSets holds the live warps as the scheduler sees them. Done
	// warps leave awake at the top of the scheduler loop, never
	// mid-round.
	warpSets
	needCompact bool
	pending     []Dim3 // block indices not yet launched

	lastPick [8]*warp // per-scheduler greedy pointer (GTO)
	numSched int      // warp schedulers; a warp's is its gid % numSched (warp.sched)

	// Reusable scratch for the memory timing path and for execution.
	wordBuf []uint64
	banks   memsys.BankScratch
	live    memAccess
	rows    [4][32]uint32
}

// warpSets are an SM's live warps as its scheduler rounds see them. A
// warp is awake — the next round visits it, because it was just launched,
// issued, released or woken, or is eligible — or parked: blocked until
// its classification's event. A parked warp at +Inf (a barrier, or past
// the last instruction) waits for checkBarrier; one with a finite event
// sleeps until wakeDue finds it come. A sleeper due within wheelTicks
// cycles waits in the timing wheel, a farther one in far. classes counts
// the parked warps per (instruction, stall reason), which is all a round's
// stall attribution needs of them. The slices are carved with the arena,
// with room for every resident warp and, for classAt, every class.
type warpSets struct {
	awake []*warp

	// slots[t mod wheelTicks] lists, through warp.nextSleep, the sleepers
	// whose ⌈event⌉ is tick t, for t in [cursor, cursor+wheelTicks); the
	// same bit of occupied is set when that list is not empty. wakeDue
	// leaves cursor at ⌊now⌋+1. far is a min-heap of the other sleepers.
	slots    [wheelTicks]*warp
	occupied uint64
	cursor   int64
	far      []sleeper

	classes []parkClass
	classAt []int32 // 1 + the index in classes of the class at*NumStalls+reason, 0 if none
	parked  int
}

// wheelTicks is the timing wheel's span in cycles, one occupancy bit each.
const wheelTicks = 64

// sleeper is a parked warp in far, with its event inline.
type sleeper struct {
	event float64
	w     *warp
}

// parkClass is n parked warps whose stall goes to PCStalls[at][reason].
type parkClass struct {
	at, n  int
	reason Stall
}

// park takes warp w, classified blocked, out of the rounds' visits.
func (sm *smState) park(w *warp) {
	w.parked = true
	sm.parked++
	if !sm.cyclesOnly {
		sm.count(w, 1)
	}
	ev := w.cls.event
	if ev <= float64(sm.cursor+wheelTicks-1) {
		// ⌈ev⌉ is inside the wheel. An event this round already reached
		// (there is none: classify blocks only on later ones) would go to
		// the slot wakeDue scans first.
		s := max(int64(math.Ceil(ev)), sm.cursor) & (wheelTicks - 1)
		w.nextSleep, sm.slots[s] = sm.slots[s], w
		sm.occupied |= 1 << s
		return
	}
	if math.IsInf(ev, 1) {
		return
	}
	h := append(sm.far, sleeper{ev, w})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].event <= ev {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = sleeper{ev, w}
	sm.far = h
}

// wake returns parked warp w to the awake set, keeping its
// classification. The caller has taken it out of its sleep set, if it
// was in one.
func (sm *smState) wake(w *warp) {
	w.parked = false
	sm.parked--
	if !sm.cyclesOnly {
		sm.count(w, -1)
	}
	sm.awake = append(sm.awake, w)
}

// wakeDue wakes exactly the sleepers whose event has come (event <= now):
// the wheel's whole slots of ticks up to ⌊now⌋, the sleepers of slot
// ⌊now⌋+1 whose event is at most now, and far's due top.
func (sm *smState) wakeDue() {
	now := sm.now
	tick := int64(now)
	if sm.occupied != 0 {
		// Bit b of rel is the slot of tick cursor+b.
		rel := bits.RotateLeft64(sm.occupied, -int(sm.cursor&(wheelTicks-1)))
		d := tick - sm.cursor // ≥ -1: cursor is the last round's ⌊now⌋+1
		if d >= 0 {
			whole := rel
			if d < wheelTicks-1 {
				whole &= 1<<(d+1) - 1
			}
			for ; whole != 0; whole &= whole - 1 {
				s := (sm.cursor + int64(bits.TrailingZeros64(whole))) & (wheelTicks - 1)
				for w := sm.slots[s]; w != nil; w = w.nextSleep {
					sm.wake(w)
				}
				sm.slots[s] = nil
				sm.occupied &^= 1 << s
			}
		}
		if d+1 < wheelTicks && rel>>(d+1)&1 != 0 {
			s := (tick + 1) & (wheelTicks - 1)
			link := &sm.slots[s]
			for w := *link; w != nil; w = w.nextSleep {
				if w.cls.event <= now {
					*link = w.nextSleep
					sm.wake(w)
				} else {
					link = &w.nextSleep
				}
			}
			if sm.slots[s] == nil {
				sm.occupied &^= 1 << s
			}
		}
	}
	sm.cursor = tick + 1
	for h := sm.far; len(h) > 0 && h[0].event <= now; {
		top, last := h[0].w, h[len(h)-1]
		h = h[:len(h)-1]
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].event < h[c].event {
				c++
			}
			if h[c].event >= last.event {
				break
			}
			h[i] = h[c]
			i = c
		}
		if len(h) > 0 {
			h[i] = last
		}
		sm.far = h
		sm.wake(top)
	}
}

// nextEvent is the earliest sleeper's event, +Inf when none sleeps: the
// minimum of far's top and the first occupied slot, whose events all
// precede the later slots'.
func (sm *smState) nextEvent() float64 {
	next := math.Inf(1)
	if len(sm.far) > 0 {
		next = sm.far[0].event
	}
	if sm.occupied != 0 {
		rel := bits.RotateLeft64(sm.occupied, -int(sm.cursor&(wheelTicks-1)))
		for w := sm.slots[(sm.cursor+int64(bits.TrailingZeros64(rel)))&(wheelTicks-1)]; w != nil; w = w.nextSleep {
			next = min(next, w.cls.event)
		}
	}
	return next
}

// count adds d to the parked count of w's class.
func (sm *smState) count(w *warp, d int) {
	at, r := sm.counters.at(w.cls.pc), w.cls.reason
	key := at*int(NumStalls) + int(r)
	i := int(sm.classAt[key]) - 1
	if i < 0 {
		sm.classAt[key] = int32(len(sm.classes) + 1)
		sm.classes = append(sm.classes, parkClass{at: at, n: d, reason: r})
		return
	}
	if k := &sm.classes[i]; k.n+d != 0 {
		k.n += d
		return
	}
	last := sm.classes[len(sm.classes)-1]
	sm.classes[i] = last
	sm.classAt[last.at*int(NumStalls)+int(last.reason)] = int32(i + 1)
	sm.classAt[key] = 0
	sm.classes = sm.classes[:len(sm.classes)-1]
}

// stallParked attributes dt warp-cycles to every parked warp's class. Each
// warp still costs its own add: within a round every add into an
// accumulator is the same dt, so only their number fixes the sum.
func (sm *smState) stallParked(dt float64) {
	c := sm.counters
	for _, k := range sm.classes {
		total, at := c.StallCycles[k.reason], c.PCStalls[k.at][k.reason]
		for n := k.n; n > 0; n-- {
			total += dt
			at += dt
		}
		c.StallCycles[k.reason], c.PCStalls[k.at][k.reason] = total, at
	}
}

// classification of one warp at one instant.
//
// stable marks an eligible warp whose next instruction is of class ALU,
// Const or Control: classify checks no issue queue or pipe for those, and
// what it does check — barrier, readyAt, the scoreboard, EXIT's
// lastStoreDone — only the warp's own issue moves once it is eligible
// (time passing keeps a past time past). So until the warp issues it
// stays eligible at the same pc, and the rounds reuse the classification
// instead of calling classify. Its event, the round's now, is not read
// for an eligible warp.
type wclass struct {
	reason   Stall
	event    float64 // when the condition may clear (+Inf if externally driven)
	eligible bool
	stable   bool
	pc       uint64
}

// classify sets w.cls to whether warp w can issue now, and if not, why and
// until when. This function is both the scheduler's eligibility test and
// the source of stall attribution (and hence of PC sampling data). It
// writes w.cls in place: a returned wclass reached w.cls through a stack
// copy whose wide load waited on the narrow stores before it.
func (e *engine) classify(sm *smState, w *warp) {
	if w.atBarrier {
		w.cls = wclass{reason: StallBarrier, event: math.Inf(1), pc: w.pc}
		return
	}
	if w.readyAt > sm.now {
		w.cls = wclass{reason: w.waitReason, event: w.readyAt, pc: w.pc}
		return
	}
	idx := int(w.pc / sass.InstBytes)
	if idx >= len(e.code) {
		// The warp ran past the last instruction (a path without EXIT):
		// it never issues again and the launch ends in the deadlock error.
		w.cls = wclass{reason: StallDrain, event: math.Inf(1), pc: w.pc}
		return
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
		w.cls = wclass{reason: stallForClass(blockClass), event: blockUntil, pc: w.pc}
		return
	}

	// Structural hazards.
	a := &e.arch
	class := sass.ClassOf(in.Op)
	switch class {
	case sass.ClassGlobal, sass.ClassLocal:
		if sm.lgQ.inflight(sm.now) >= a.LGQueueDepth {
			w.cls = wclass{reason: StallLGThrottle, event: sm.lgQ.earliest(), pc: w.pc}
			return
		}
	case sass.ClassShared:
		if sm.mioQ.inflight(sm.now) >= a.MIOQueueDepth {
			w.cls = wclass{reason: StallMIOThrottle, event: sm.mioQ.earliest(), pc: w.pc}
			return
		}
	case sass.ClassTexture:
		if sm.texQ.inflight(sm.now) >= a.TEXQueueDepth {
			w.cls = wclass{reason: StallTexThrottle, event: sm.texQ.earliest(), pc: w.pc}
			return
		}
	case sass.ClassFP64:
		if sm.fp64Free > sm.now {
			w.cls = wclass{reason: StallMathPipeThrottle, event: sm.fp64Free, pc: w.pc}
			return
		}
	case sass.ClassSFU:
		if sm.sfuFree > sm.now {
			w.cls = wclass{reason: StallMathPipeThrottle, event: sm.sfuFree, pc: w.pc}
			return
		}
	}
	if in.Op == sass.OpEXIT && w.lastStoreDone > sm.now {
		w.cls = wclass{reason: StallDrain, event: w.lastStoreDone, pc: w.pc}
		return
	}
	w.cls = wclass{reason: StallSelected, eligible: true, event: sm.now, pc: w.pc}
	w.cls.stable = class == sass.ClassALU || class == sass.ClassConst || class == sass.ClassControl
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
		execMask = w.guardMask(in)
		if err := e.exec(w, d, execMask, &sm.live, &sm.rows); err != nil {
			return err
		}
		if d.accesses(execMask) {
			words = e.words(sm, &sm.live)
		}
		if w.stream != nil {
			sm.rec.add(w, at, d, execMask, words)
		}
	}

	c := sm.counters
	c.WarpInsts++
	c.ThreadInsts += uint64(bits.OnesCount32(execMask))
	c.OpcodeDyn[in.Op]++

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
				lat := e.l2Access(sm, true, sm.l2.AccessSector(s))
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
// per sector, in sector order; nothing else may be interleaved. Each
// cache takes a run of sectors on one of its lines as one AccessLine,
// which is the run's AccessSector calls: the sectors are distinct, and
// within the walk nothing else touches the L1, or the L2 but the run's
// own lookups, so a run's lookups may precede its other calls.
func (e *engine) sectorWalk(sm *smState, write bool, sectors []uint64, pipe *memsys.Bandwidth, mshr *mshrTracker, baseLat float64, useL1 bool) (done, svcEnd float64, n, hits uint64) {
	a := &e.arch
	done, svcEnd = sm.now, sm.now
	line := ^uint64(min(a.L1LineBytes, a.L2LineBytes) - 1)
	for i := 0; i < len(sectors); {
		j, mask := i, uint32(0)
		for ; j < len(sectors) && sectors[j]&line == sectors[i]&line; j++ {
			mask |= sm.l1.SectorBit(sectors[j])
		}
		var l1Hits, l2Mask uint32
		if useL1 {
			l1Hits = sm.l1.AccessLine(sectors[i], mask)
		}
		// Volta's L1 is write-through: every store sector goes to L2
		// regardless of the L1 state (uncoalesced stores therefore hammer L2
		// bandwidth), and so does every read that missed.
		for _, s := range sectors[i:j] {
			if write || l1Hits&sm.l1.SectorBit(s) == 0 {
				l2Mask |= sm.l2.SectorBit(s)
			}
		}
		var l2Hits uint32
		if l2Mask != 0 {
			l2Hits = sm.l2.AccessLine(sectors[i], l2Mask)
		}
		for _, s := range sectors[i:j] {
			svc := pipe.Request(sm.now, a.L1SectorBytes)
			if svc > svcEnd {
				svcEnd = svc
			}
			hit := l1Hits&sm.l1.SectorBit(s) != 0
			l2Hit := l2Hits&sm.l2.SectorBit(s) != 0
			lat := baseLat
			if write {
				e.l2Access(sm, true, l2Hit)
			} else if !hit {
				// An L1 miss occupies an MSHR until data returns; when all
				// MSHRs are busy the miss waits for a free slot.
				start := mshr.admit(svc)
				lat += (start - svc) + e.l2Access(sm, false, l2Hit)
				mshr.push(svc + lat)
			}
			if hit {
				hits++
			}
			if t := svc + lat; t > done {
				done = t
			}
		}
		i = j
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

// l2Access models one 32-byte sector request to this SM's L2 slice, whose
// lookup the caller made (hit), and on a miss to DRAM. It returns the
// added latency beyond L1.
func (e *engine) l2Access(sm *smState, write, hit bool) float64 {
	a := &e.arch
	c := sm.counters
	q := sm.l2bw.QueueDelay(sm.now)
	sm.l2bw.Request(sm.now, a.L1SectorBytes)
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
			if w.parked {
				sm.wake(w) // at +Inf, so not in sleep
			}
		}
	}
	b.barArrived = 0
	b.asyncDone = 0
}

// retireWarp handles warp completion. When the whole block retires its
// arena slot is released; the scheduler loop recycles it for a pending
// CTA at the top of its next iteration, after the done warps have left
// the awake set.
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
		w.sched = w.gid % sm.numSched
		if sm.rec != nil {
			w.stream = &sm.rec.warps[w.gid-sm.gidBase]
		}
		sm.nextGid++
		w.readyAt = sm.now
		w.waitReason = StallWait
		nb.warps = append(nb.warps, w)
		sm.awake = append(sm.awake, w)
	}
}
