package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/memsys"
	"gpuscout/internal/sass"
)

// siteLaunch is the fault-injection site covering the simulated launch.
var siteLaunch = faultinject.Register("sim.launch")

// Config controls a simulated launch.
type Config struct {
	// SampleSMs caps how many SMs are simulated; blocks assigned to other
	// SMs are accounted for by scaling (homogeneous-workload assumption,
	// standard simulator practice). 0 means the default of 4.
	SampleSMs int
	// MaxCycles aborts runaway kernels. 0 means the default of 2e8.
	MaxCycles float64
	// Workers caps how many sampled SMs simulate concurrently. Each SM
	// owns its timing state, counters, and L2/DRAM bandwidth slice, so
	// SMs are independent up to device memory; cross-SM global atomics
	// serialize in an address-sharded atomic unit. 0 uses GOMAXPROCS;
	// with 1 the SMs run one after another in SM-ID order, the reference
	// the parallel differentials compare against. Every worker count
	// produces the same Result bit for bit (fixed SM-ID merge order; see
	// the determinism note on Result).
	Workers int
}

// LaunchSpec describes one kernel launch.
type LaunchSpec struct {
	Kernel *sass.Kernel
	Grid   Dim3
	Block  Dim3
	// Params are the kernel's 8-byte argument slots (pointers as device
	// addresses, 32-bit scalars in the low word), written to the constant
	// bank at sass.ParamBase.
	Params []uint64
}

// program is the part of a launch that no timing can change: the kernel,
// its geometry and decode table, and which SM runs which blocks under
// which warp IDs. A Recording keeps it for its replays.
type program struct {
	kernel *sass.Kernel
	grid   Dim3
	block  Dim3
	cfg    Config
	occ    gpu.Occupancy

	// code is the kernel decoded for this launch, indexed by
	// PC / sass.InstBytes.
	code []decoded

	// plans is the per-SM work. Global warp IDs feed scheduling order and
	// local-memory addressing, so each SM gets a precomputed base equal to
	// the warps launched by the SMs before it — the exact IDs a sequential
	// pass over the SMs would assign.
	plans []smPlan
}

type smPlan struct {
	id      int
	blocks  []Dim3
	gidBase int
}

// engine holds everything one simulated launch needs. During the SM
// phase the engine is shared read-only between SM goroutines; all
// mutable per-SM state (timing, counters, warp IDs, its part of a
// recording) lives in smState, and the only cross-SM writes — global
// atomics — go through atomics.
type engine struct {
	program
	ctx  context.Context
	dev  *Device
	arch gpu.Arch

	constMem []byte
	atomics  atomicUnit

	// localBase is a synthetic address region where per-thread local
	// memory lives for cache-modeling purposes.
	localBase uint64

	// rec, when set, is the recording this launch writes (one smRecording
	// per SM) or, with replay set, the one it takes every instruction's
	// outcome from instead of executing it.
	rec    *Recording
	replay bool
	// cyclesOnly drops stall attribution, which no timing decision reads:
	// Finish wants the SM's finish cycle alone.
	cyclesOnly bool
}

// Bounds on what a kernel header may declare, for the host's sake (like
// MaxDeviceBytes): every resident thread's local memory and the constant
// bank are backed by host memory. 16 KiB of spill space per thread is 256x
// what any shipped workload uses; 64 KiB is a hardware constant bank.
const (
	maxLocalBytes = 16 << 10
	maxConstBytes = 64 << 10
)

// Launch runs the kernel on the device and returns timing, stalls and
// counters. Functional effects (buffer contents, atomics) are applied to
// the device memory.
func Launch(dev *Device, spec LaunchSpec, cfg Config) (*Result, error) {
	return LaunchContext(context.Background(), dev, spec, cfg)
}

// LaunchContext is Launch with cancellation: the simulation loop polls
// ctx and aborts promptly (within a few thousand simulated cycles) when
// it is cancelled or its deadline passes, returning an error satisfying
// errors.Is(err, ctx.Err()).
func LaunchContext(ctx context.Context, dev *Device, spec LaunchSpec, cfg Config) (*Result, error) {
	res, _, err := launch(ctx, dev, spec, cfg, false)
	return res, err
}

func launch(ctx context.Context, dev *Device, spec LaunchSpec, cfg Config, record bool) (*Result, *Recording, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := faultinject.Hit(siteLaunch); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	k := spec.Kernel
	if err := k.Validate(); err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	if k.NumRegs < 0 || k.SharedBytes < 0 || k.LocalBytes < 0 || k.LocalBytes > maxLocalBytes || k.ConstBytes > maxConstBytes {
		return nil, nil, fmt.Errorf("sim: kernel %s declares regs=%d shared=%d local=%d const=%d; need 0 <= local <= %d, const <= %d, none negative",
			k.Name, k.NumRegs, k.SharedBytes, k.LocalBytes, k.ConstBytes, maxLocalBytes, maxConstBytes)
	}
	if spec.Grid.X <= 0 || spec.Grid.Y < 0 || spec.Grid.Z < 0 ||
		spec.Block.X <= 0 || spec.Block.Y < 0 || spec.Block.Z < 0 {
		return nil, nil, fmt.Errorf("sim: empty grid/block %v/%v", spec.Grid, spec.Block)
	}
	if spec.Block.Count() > dev.Arch.MaxThreadsPerBlock {
		return nil, nil, fmt.Errorf("sim: block of %d threads exceeds limit %d", spec.Block.Count(), dev.Arch.MaxThreadsPerBlock)
	}
	occ, err := gpu.ComputeOccupancy(dev.Arch, k.NumRegs, k.SharedBytes, spec.Block.Count())
	if err != nil {
		return nil, nil, fmt.Errorf("sim: occupancy: %w", err)
	}
	if cfg.SampleSMs <= 0 {
		cfg.SampleSMs = 4
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 2e8
	}

	e := &engine{
		program:   program{kernel: k, grid: spec.Grid, block: spec.Block, cfg: cfg, occ: occ},
		ctx:       ctx,
		dev:       dev,
		arch:      dev.Arch,
		localBase: memBase + uint64(dev.Arch.DRAMBytes) + (1 << 40),
	}

	// Parameter area in constant bank 0.
	e.constMem = make([]byte, max(sass.ParamBase+8*len(spec.Params), k.ConstBytes))
	for i, p := range spec.Params {
		binary.LittleEndian.PutUint64(e.constMem[sass.ParamBase+8*i:], p)
	}

	if e.code, err = e.decode(); err != nil {
		return nil, nil, err
	}

	// Distribute blocks round-robin over all NumSMs; simulate a sample.
	warpsPerBlock := (spec.Block.Count() + 31) / 32
	simulatedBlocks := 0
	for smID, n := 0, e.simSMs(); smID < n; smID++ {
		blocks := blocksForSM(spec.Grid, smID, e.arch.NumSMs)
		if len(blocks) == 0 {
			continue
		}
		e.plans = append(e.plans, smPlan{id: smID, blocks: blocks, gidBase: simulatedBlocks * warpsPerBlock})
		simulatedBlocks += len(blocks)
	}
	if simulatedBlocks == 0 {
		return nil, nil, fmt.Errorf("sim: no blocks simulated")
	}

	if record && replayable(e.code) {
		e.rec = &Recording{program: e.program, arch: e.arch, sms: make([]smRecording, len(e.plans))}
	}
	filled := dev.filled
	res, err := e.run()
	if err != nil {
		return nil, nil, err
	}
	res.Host.FilledPages = dev.filled - filled
	if e.rec != nil && slices.ContainsFunc(e.rec.sms, func(sm smRecording) bool { return sm.over }) {
		e.rec = nil // some SM outgrew its budget
	}
	return res, e.rec, nil
}

// simSMs is how many SMs the launch samples.
func (e *engine) simSMs() int {
	return min(e.arch.NumSMs, e.cfg.SampleSMs, e.grid.Count())
}

// run simulates the planned SMs — executing, or replaying e.rec — and
// reduces them to the launch's Result.
func (e *engine) run() (*Result, error) {
	plans := e.plans
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plans) {
		workers = len(plans)
	}

	// A pool of `workers` goroutines takes the plans in order from a
	// shared counter. A failing SM cancels its siblings through runCtx so
	// the launch aborts promptly instead of simulating doomed SMs to the
	// end.
	sms := make([]*smState, len(plans))
	smSeconds := make([]float64, len(plans))
	errs := make([]error, len(plans))
	wallStart := time.Now()
	runCtx, cancel := context.WithCancel(e.ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(plans); i = int(next.Add(1)) - 1 {
				sm := e.newSM(i)
				t0 := time.Now()
				if errs[i] = e.runSM(runCtx, sm, plans[i].blocks); errs[i] != nil {
					cancel()
					return
				}
				smSeconds[i] = time.Since(t0).Seconds()
				sms[i] = sm
				if e.rec != nil && !e.replay && e.rec.seal(i, sm.now) {
					if fn, ok := e.ctx.Value(recordedKey{}).(func(*Recording, int)); ok {
						fn(e.rec, i)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := firstSMError(e.ctx, errs); err != nil {
		return nil, err
	}

	// Deterministic reduction: merge per-SM counters in fixed SM-ID
	// order, so float accumulation order — and hence every derived
	// metric — is identical for any worker count.
	merged := newCounters(len(e.kernel.Insts))
	var maxFinish, smSecondsTotal float64
	smFinish := make([]float64, len(sms))
	simulatedBlocks := 0
	for i, sm := range sms {
		merged.merge(sm.counters)
		smFinish[i] = sm.now
		if sm.now > maxFinish {
			maxFinish = sm.now
		}
		smSecondsTotal += smSeconds[i]
		simulatedBlocks += len(plans[i].blocks)
	}

	totalBlocks := e.grid.Count()
	res := &Result{
		Kernel:          e.kernel.Name,
		Grid:            e.grid,
		Block:           e.block,
		Cycles:          maxFinish,
		DurationSec:     e.arch.CyclesToSeconds(uint64(maxFinish)),
		Occupancy:       e.occ,
		Scale:           float64(totalBlocks) / float64(simulatedBlocks),
		SimulatedBlocks: simulatedBlocks,
		TotalBlocks:     totalBlocks,
		NumSMs:          e.arch.NumSMs,
		SimulatedSMs:    e.simSMs(),
		SMFinish:        smFinish,
		Counters:        merged,
		Host: HostStats{
			Workers:     workers,
			WallSeconds: time.Since(wallStart).Seconds(),
			SMSeconds:   smSecondsTotal,
		},
	}
	if merged.SMBusyCycles > 0 {
		res.AchievedOccupancy = merged.ActiveWarpCycles /
			(merged.SMBusyCycles * float64(e.arch.MaxWarpsPerSM))
	}
	return res, nil
}

// firstSMError picks the error a parallel launch reports: the
// lowest-SM-ID failure that is not collateral damage from our own
// sibling cancellation, falling back to the first error of any kind
// (every error is a cancellation when the caller's ctx itself ended).
func firstSMError(ctx context.Context, errs []error) error {
	var collateral error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if collateral == nil {
			collateral = err
		}
		if ctx.Err() != nil || !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return collateral
}

// blocksForSM lists the block indices assigned to one SM under
// round-robin rasterization (X-major, then Y, then Z).
func blocksForSM(grid Dim3, smID, numSMs int) []Dim3 {
	var out []Dim3
	gx, gy, _ := grid.dims()
	for lin, total := smID, grid.Count(); lin < total; lin += numSMs {
		out = append(out, Dim3{X: lin % gx, Y: (lin / gx) % gy, Z: lin / (gx * gy)})
	}
	return out
}

// newSM builds the timing state of the SM of plan i with this SM's
// bandwidth slices, its own counters, its deterministic global-warp-ID
// base and, when the launch records or replays, its own recording.
func (e *engine) newSM(i int) *smState {
	a, p := &e.arch, &e.plans[i]
	var rec *smRecording
	if e.rec != nil {
		rec = &e.rec.sms[i]
	}
	var counters *Counters
	if e.cyclesOnly {
		counters = &Counters{}
	} else {
		counters = newCounters(len(e.kernel.Insts))
	}
	l1, l2 := memsys.SMCaches(a)
	return &smState{
		id:         p.id,
		gidBase:    p.gidBase,
		nextGid:    p.gidBase,
		rec:        rec,
		counters:   counters,
		cyclesOnly: e.cyclesOnly,
		l1:         memsys.NewCache(l1),
		l2:         memsys.NewCache(l2),
		lsu:        memsys.NewBandwidth(float64(a.L1SectorBytes)), // 1 sector/cycle
		texu:       memsys.NewBandwidth(float64(a.L1SectorBytes)), // 1 sector/cycle
		mio:        memsys.NewBandwidth(1),                        // 1 transaction/cycle
		l2bw:       memsys.NewBandwidth(a.L2BWBytes / float64(a.NumSMs)),
		dram:       memsys.NewBandwidth(a.DRAMBWBytes / float64(a.NumSMs)),

		lsuMiss: mshrTracker{capacity: a.LSUMSHRs},
		texMiss: mshrTracker{capacity: a.TEXMSHRs},
	}
}

// runSM simulates all blocks assigned to one SM; sm.now holds its
// finish time in cycles and sm.counters its event counts. It touches no
// engine state besides read-only launch data, device memory (disjoint
// functional writes; atomics via the shared atomic unit), and ctx, so
// SMs may run concurrently.
func (e *engine) runSM(ctx context.Context, sm *smState, blockIdxs []Dim3) error {
	resident := e.occ.BlocksPerSM
	if resident > len(blockIdxs) {
		resident = len(blockIdxs)
	}
	// All mutable warp/block state for this SM lives in one arena sized
	// for the resident-block window; slots recycle as CTAs retire.
	sm.arena, sm.warpSets = newLaunchArena(e.kernel, e.block, resident, !e.replay)
	sm.numSched = e.arch.NumSchedulers
	if sm.numSched < 1 || sm.numSched > len(sm.lastPick) {
		sm.numSched = 4
	}
	if sm.rec != nil && !e.replay {
		sm.rec.warps = make([]warpStream, len(blockIdxs)*sm.arena.warpsPerBlock)
		sm.rec.budget = maxRecordingBytes / len(e.plans)
	}
	for i := 0; i < resident; i++ {
		e.launchBlock(sm, blockIdxs[i])
	}
	sm.pending = blockIdxs[resident:]

	// prevDT is the last round's time step, attributed to the warps'
	// end-of-round classifications during the next round. Warps without a
	// valid classification (just issued, launched or released) get none.
	prevDT := 0.0
	for iter := 0; ; iter++ {
		// Cancellation poll: cheap enough amortized over 1024 scheduler
		// rounds, frequent enough that a daemon's per-job timeout actually
		// interrupts a long simulation.
		if iter&1023 == 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("sim: kernel %s aborted at cycle %.0f on SM %d: %w",
					e.kernel.Name, sm.now, sm.id, ctx.Err())
			default:
			}
		}
		// Housekeeping between scheduler rounds — never mid-round. First
		// drop done warps from the awake set (only an issued warp can be
		// done, and it stays awake until here), then recycle freed arena
		// slots for pending CTAs. Refill happens only here, between rounds:
		// a new warp is first considered in the round after its slot was
		// freed, and its readyAt is a don't-care below sm.now.
		if sm.needCompact {
			sm.needCompact = false
			live := sm.awake[:0]
			for _, w := range sm.awake {
				if !w.done {
					live = append(live, w)
				}
			}
			sm.awake = live
		}
		for len(sm.pending) > 0 && len(sm.arena.freeSlots) > 0 {
			idx := sm.pending[0]
			sm.pending = sm.pending[1:]
			e.launchBlock(sm, idx)
		}
		if len(sm.awake)+sm.parked == 0 {
			break
		}

		// Wake the warps whose event has come, attribute the last step to
		// the warps still parked, then visit the awake ones: attribute
		// their stall, classify them, park the blocked, and collect each
		// scheduler's lowest-gid eligible warp. A parked warp cannot
		// unblock before its event, or before checkBarrier releases it
		// (which wakes it), so its classification stays exact; nor can an
		// eligible warp whose classification is stable (wclass.stable)
		// change before it issues, so it is not classified again.
		sm.wakeDue()
		attribute := !sm.cyclesOnly && prevDT > 0
		if attribute {
			sm.stallParked(prevDT)
		}
		var firstElig [8]*warp
		awake := sm.awake[:0]
		for _, w := range sm.awake {
			if attribute && w.clsValid {
				reason := w.cls.reason
				if w.cls.eligible {
					reason = StallNotSelected
				}
				sm.counters.addStall(w.cls.pc, reason, prevDT)
			}
			if !w.clsValid || !w.cls.stable {
				e.classify(sm, w)
				w.clsValid = true
			}
			if !w.cls.eligible {
				sm.park(w)
				continue
			}
			awake = append(awake, w)
			if s := w.sched; firstElig[s] == nil || w.gid < firstElig[s].gid {
				firstElig[s] = w
			}
		}
		sm.awake = awake
		liveWarps := len(awake) + sm.parked

		// Scheduling: each scheduler issues at most one eligible warp,
		// greedy-then-oldest. Issuing never flips another warp's cached
		// eligibility (barrier releases and retires only clear clsValid
		// and wake), so the candidates collected above are exact.
		issued := 0
		for sched := 0; sched < sm.numSched; sched++ {
			pick := firstElig[sched]
			if last := sm.lastPick[sched]; last != nil && !last.done && last.cls.eligible {
				pick = last
			}
			if pick == nil {
				continue
			}
			sm.lastPick[sched] = pick
			pc := pick.cls.pc
			if err := e.issue(sm, pick); err != nil {
				return err
			}
			if !sm.cyclesOnly {
				sm.counters.addStall(pc, StallSelected, 1)
			}
			pick.cls.eligible = false
			pick.cls.reason = StallSelected
			pick.clsValid = false
			issued++
		}

		// Advance time. With no issue this round no warp was eligible, so
		// every live warp is parked and nothing changed since: the earliest
		// possible unblock is the soonest sleeper's event, after sm.now.
		dt := 1.0
		if issued == 0 {
			next := sm.nextEvent()
			if math.IsInf(next, 1) {
				return fmt.Errorf("sim: deadlock on SM %d at cycle %.0f (kernel %s): all %d warps blocked",
					sm.id, sm.now, e.kernel.Name, liveWarps)
			}
			dt = next - sm.now
		}
		sm.counters.ActiveWarpCycles += float64(liveWarps) * dt
		prevDT = dt
		sm.now += dt
		if sm.now > e.cfg.MaxCycles {
			return fmt.Errorf("sim: kernel %s exceeded %g cycles on SM %d", e.kernel.Name, e.cfg.MaxCycles, sm.id)
		}
	}
	sm.counters.SMBusyCycles = sm.now
	return nil
}
