package sim

import (
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
)

// Counters are the raw hardware event counts a kernel launch produces.
// internal/ncu derives its named metrics from these; internal/cupti
// derives PC samples from the per-PC stall integrals.
type Counters struct {
	// Issue and instruction mix.
	WarpInsts   uint64                  // warp instructions issued
	ThreadInsts uint64                  // thread instructions (x active lanes)
	OpcodeDyn   [sass.NumOpcodes]uint64 // warp instructions issued, by opcode

	// Sector traffic through L1TEX by space and direction. A sector is
	// Arch.L1SectorBytes wide (32 B on Volta, matching l1tex__t_sectors_*
	// semantics; wider on Ampere-class targets).
	GlobalLdSectors, GlobalLdSectorHits uint64
	GlobalStSectors                     uint64
	LocalLdSectors, LocalLdSectorHits   uint64
	LocalStSectors                      uint64
	TexSectors, TexSectorHits           uint64 // texture + LDG.E.NC reads

	// Memory instruction counts by space.
	GlobalLdInsts, GlobalStInsts uint64
	LocalLdInsts, LocalStInsts   uint64
	SharedLdInsts, SharedStInsts uint64
	TexInsts                     uint64
	GlobalAtomics, SharedAtomics uint64

	// cp.async-style global→shared copies (LDGSTS, sm_80+). These bypass
	// L1 and the register file, so their sectors are tracked separately
	// from the GlobalLd* L1TEX counters.
	AsyncCopyInsts, AsyncCopySectors uint64

	// Shared-memory transactions vs accesses (bank-conflict ratio §4.3).
	SharedLdTrans, SharedStTrans uint64

	// L2 and DRAM.
	L2Sectors, L2Hits             uint64
	L2ReadSectors, L2WriteSectors uint64
	DRAMReadBytes, DRAMWriteBytes uint64

	// Stall integrals in warp-cycles: total, and per instruction (index
	// PC / sass.InstBytes), the last entry taking every PC past the end.
	StallCycles Stalls
	PCStalls    []Stalls

	// Occupancy accounting.
	ActiveWarpCycles float64 // integral of resident, unfinished warps over time
	SMBusyCycles     float64 // sum over simulated SMs of their busy time
}

// newCounters returns zeroed counters for a kernel of insts instructions.
func newCounters(insts int) *Counters {
	return &Counters{PCStalls: make([]Stalls, insts+1)}
}

// addStall attributes dt warp-cycles of stall reason `reason` at pc.
func (c *Counters) addStall(pc uint64, reason Stall, dt float64) {
	c.StallCycles[reason] += dt
	c.PCStalls[c.at(pc)][reason] += dt
}

// at is the index of pc's entry in PCStalls.
func (c *Counters) at(pc uint64) int { return min(int(pc/sass.InstBytes), len(c.PCStalls)-1) }

// merge folds one SM's counters into c. LaunchContext calls it in fixed
// SM-ID order for every worker count, so float accumulation order — and
// hence every value here — is identical between sequential and parallel
// runs. Keep this exhaustive over the struct's fields;
// TestCountersMergeCoversAllFields enforces it by reflection.
func (c *Counters) merge(o *Counters) {
	c.WarpInsts += o.WarpInsts
	c.ThreadInsts += o.ThreadInsts
	for op := range o.OpcodeDyn {
		c.OpcodeDyn[op] += o.OpcodeDyn[op]
	}

	c.GlobalLdSectors += o.GlobalLdSectors
	c.GlobalLdSectorHits += o.GlobalLdSectorHits
	c.GlobalStSectors += o.GlobalStSectors
	c.LocalLdSectors += o.LocalLdSectors
	c.LocalLdSectorHits += o.LocalLdSectorHits
	c.LocalStSectors += o.LocalStSectors
	c.TexSectors += o.TexSectors
	c.TexSectorHits += o.TexSectorHits

	c.GlobalLdInsts += o.GlobalLdInsts
	c.GlobalStInsts += o.GlobalStInsts
	c.LocalLdInsts += o.LocalLdInsts
	c.LocalStInsts += o.LocalStInsts
	c.SharedLdInsts += o.SharedLdInsts
	c.SharedStInsts += o.SharedStInsts
	c.TexInsts += o.TexInsts
	c.GlobalAtomics += o.GlobalAtomics
	c.SharedAtomics += o.SharedAtomics

	c.AsyncCopyInsts += o.AsyncCopyInsts
	c.AsyncCopySectors += o.AsyncCopySectors

	c.SharedLdTrans += o.SharedLdTrans
	c.SharedStTrans += o.SharedStTrans

	c.L2Sectors += o.L2Sectors
	c.L2Hits += o.L2Hits
	c.L2ReadSectors += o.L2ReadSectors
	c.L2WriteSectors += o.L2WriteSectors
	c.DRAMReadBytes += o.DRAMReadBytes
	c.DRAMWriteBytes += o.DRAMWriteBytes

	for s := Stall(0); s < NumStalls; s++ {
		c.StallCycles[s] += o.StallCycles[s]
	}
	for i := range o.PCStalls {
		for s := Stall(0); s < NumStalls; s++ {
			c.PCStalls[i][s] += o.PCStalls[i][s]
		}
	}

	c.ActiveWarpCycles += o.ActiveWarpCycles
	c.SMBusyCycles += o.SMBusyCycles
}

// HostStats reports host-side execution statistics of one launch: how
// long the SM-simulation phase took on the wall clock, the aggregate
// time the individual SMs consumed (their ratio is the achieved parallel
// speedup), the worker cap in effect, and the input pages the launch
// filled on demand. Host values vary run to run and are excluded from the
// determinism guarantee below.
type HostStats struct {
	// Workers is the effective concurrency cap (after resolving 0 to
	// GOMAXPROCS and clamping to the number of sampled SMs with work).
	Workers int
	// WallSeconds is the elapsed host time of the SM-simulation phase.
	WallSeconds float64
	// SMSeconds sums each SM's individual host simulation time; with
	// perfect scaling WallSeconds approaches SMSeconds / Workers.
	SMSeconds float64
	// FilledPages counts the 4 KiB pages under a Device.Fill this launch
	// backed and filled on first touch: what sampling left it to write of
	// the input, pages backed before the launch (by a host accessor)
	// excluded. Pages it backed that no Fill covers, zeroed on first
	// touch, are not counted.
	FilledPages int
}

// Speedup returns the achieved parallel speedup of the launch
// (aggregate per-SM host time over wall time; 1 when sequential).
func (h HostStats) Speedup() float64 {
	if h.WallSeconds <= 0 {
		return 1
	}
	return h.SMSeconds / h.WallSeconds
}

// Result is the outcome of one simulated kernel launch.
//
// Determinism: for a fixed device state, spec, SampleSMs and MaxCycles,
// every field except Host is bit-identical for every Config.Workers
// value — per-SM state is confined, and the per-SM counters are merged
// in fixed SM-ID order (see DESIGN.md "Parallel per-SM simulation").
type Result struct {
	Kernel      string
	Grid, Block Dim3

	// Cycles is the kernel duration in SM cycles (max over SMs);
	// DurationSec converts it at the modeled clock.
	Cycles      float64
	DurationSec float64

	// Occupancy from the launch configuration, and the achieved value
	// measured during execution.
	Occupancy         gpu.Occupancy
	AchievedOccupancy float64

	// Scale is the block-sampling multiplier applied to chip-wide
	// counters (1 when every block was simulated).
	Scale           float64
	SimulatedBlocks int
	TotalBlocks     int
	NumSMs          int       // SMs on the modeled chip
	SimulatedSMs    int       // SMs actually simulated
	SMFinish        []float64 // per simulated SM, its finish time in cycles

	Counters *Counters

	// Host carries host-side timing of the launch (wall time, aggregate
	// per-SM time, workers); the one field outside the determinism
	// guarantee.
	Host HostStats
}

// BlockRan reports whether the block with the given linearized index
// (X-major) was simulated. Under SM sampling only blocks assigned to the
// simulated SMs execute; verification must skip the rest.
func (r *Result) BlockRan(linear int) bool {
	if r.NumSMs <= 0 {
		return true
	}
	return linear%r.NumSMs < r.SimulatedSMs
}

// StallShare returns stall reason s's fraction of all stalled cycles
// (Stalls.Stalled: not_selected included), in [0,1]. selected is not a
// stall: its share is 0.
func (r *Result) StallShare(s Stall) float64 {
	total := r.Counters.StallCycles.Stalled()
	if total == 0 || s == StallSelected {
		return 0
	}
	return r.Counters.StallCycles[s] / total
}

// IPC returns issued warp instructions per cycle across the simulated SMs.
func (r *Result) IPC() float64 {
	if r.Counters.SMBusyCycles == 0 {
		return 0
	}
	return float64(r.Counters.WarpInsts) / r.Counters.SMBusyCycles
}
