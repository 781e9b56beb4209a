// Package ncu models the NVIDIA Nsight Compute CLI (§2.3): a registry of
// named hardware metrics computed from the simulator's counters, and a
// replay-based collection model whose cost reproduces the Fig. 6 overhead
// profile (metric collection dominates GPUscout's runtime).
package ncu

import (
	"fmt"

	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// Context is everything metric formulas may read.
type Context struct {
	Kernel *sass.Kernel
	Result *sim.Result
}

// Metric is one collectable named quantity.
type Metric struct {
	Name        string
	Description string
	Unit        string
	Compute     func(Context) float64
}

// scaled multiplies a sampled-block counter up to the whole chip.
func scaled(v uint64, ctx Context) float64 {
	return float64(v) * ctx.Result.Scale
}

func pct(v float64) float64 { return v * 100 }

// stallPct returns a per-warp-active stall percentage, matching the
// smsp__warp_issue_stalled_*_per_warp_active.pct metric family.
func stallPct(s sim.Stall) func(Context) float64 {
	return func(ctx Context) float64 {
		c := ctx.Result.Counters
		if c.ActiveWarpCycles == 0 {
			return 0
		}
		return pct(c.StallCycles[s] / c.ActiveWarpCycles)
	}
}

var registry = []Metric{
	{"gpu__time_duration.sum", "kernel execution duration", "ns",
		func(ctx Context) float64 { return ctx.Result.DurationSec * 1e9 }},
	{"sm__cycles_elapsed.max", "elapsed SM cycles", "cycle",
		func(ctx Context) float64 { return ctx.Result.Cycles }},
	{"launch__registers_per_thread", "registers allocated per thread", "register",
		func(ctx Context) float64 { return float64(ctx.Kernel.NumRegs) }},
	{"launch__shared_mem_per_block_static", "static shared memory per block", "byte",
		func(ctx Context) float64 { return float64(ctx.Kernel.SharedBytes) }},
	{"launch__local_mem_per_thread", "local memory per thread (spill area)", "byte",
		func(ctx Context) float64 { return float64(ctx.Kernel.LocalBytes) }},
	{"sm__warps_active.avg.pct_of_peak_sustained_active", "achieved occupancy", "%",
		func(ctx Context) float64 { return pct(ctx.Result.AchievedOccupancy) }},
	{"sm__maximum_warps_per_active_cycle_pct", "theoretical occupancy", "%",
		func(ctx Context) float64 { return pct(ctx.Result.Occupancy.Theoretical) }},
	{"smsp__inst_executed.sum", "warp instructions executed", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.WarpInsts, ctx) }},
	{"smsp__thread_inst_executed.sum", "thread instructions executed", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.ThreadInsts, ctx) }},
	{"smsp__issue_active.avg.pct_of_peak_sustained_active", "issue slot utilization", "%",
		func(ctx Context) float64 {
			c := ctx.Result.Counters
			if c.SMBusyCycles == 0 {
				return 0
			}
			return pct(float64(c.WarpInsts) / (c.SMBusyCycles * 4))
		}},

	// L1TEX global path.
	{"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum", "global load sectors at L1TEX", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.GlobalLdSectors, ctx) }},
	{"l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum", "global store sectors at L1TEX", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.GlobalStSectors, ctx) }},
	{"l1tex__t_sector_pipe_lsu_mem_global_op_ld_hit_rate.pct", "L1 hit rate for global loads", "%",
		func(ctx Context) float64 {
			c := ctx.Result.Counters
			if c.GlobalLdSectors == 0 {
				return 0
			}
			return pct(float64(c.GlobalLdSectorHits) / float64(c.GlobalLdSectors))
		}},

	// L1TEX local path (register spills, §4.2).
	{"l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum", "local load sectors at L1TEX", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.LocalLdSectors, ctx) }},
	{"l1tex__t_sectors_pipe_lsu_mem_local_op_st.sum", "local store sectors at L1TEX", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.LocalStSectors, ctx) }},
	{"l1tex__t_sector_pipe_lsu_mem_local_op_ld_hit_rate.pct", "L1 hit rate for local loads", "%",
		func(ctx Context) float64 {
			c := ctx.Result.Counters
			if c.LocalLdSectors == 0 {
				return 0
			}
			return pct(float64(c.LocalLdSectorHits) / float64(c.LocalLdSectors))
		}},

	// Texture / read-only path (§4.5, §4.6).
	{"l1tex__t_sectors_pipe_tex_mem_texture.sum", "texture(+read-only) sectors", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.TexSectors, ctx) }},
	{"l1tex__t_sector_pipe_tex_mem_texture_hit_rate.pct", "texture cache hit rate", "%",
		func(ctx Context) float64 {
			c := ctx.Result.Counters
			if c.TexSectors == 0 {
				return 0
			}
			return pct(float64(c.TexSectorHits) / float64(c.TexSectors))
		}},

	// Shared memory (§4.3).
	{"smsp__inst_executed_op_shared_ld.sum", "shared load instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.SharedLdInsts, ctx) }},
	{"smsp__inst_executed_op_shared_st.sum", "shared store instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.SharedStInsts, ctx) }},
	{"l1tex__data_pipe_lsu_wavefronts_mem_shared_op_ld.sum", "shared load transactions", "wavefront",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.SharedLdTrans, ctx) }},
	{"l1tex__data_pipe_lsu_wavefronts_mem_shared_op_st.sum", "shared store transactions", "wavefront",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.SharedStTrans, ctx) }},

	// Memory instruction counts.
	{"smsp__inst_executed_op_global_ld.sum", "global load instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.GlobalLdInsts, ctx) }},
	{"smsp__inst_executed_op_global_st.sum", "global store instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.GlobalStInsts, ctx) }},
	{"smsp__inst_executed_op_local_ld.sum", "local load instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.LocalLdInsts, ctx) }},
	{"smsp__inst_executed_op_local_st.sum", "local store instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.LocalStInsts, ctx) }},
	{"smsp__inst_executed_op_texture.sum", "texture fetch instructions", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.TexInsts, ctx) }},
	{"smsp__sass_inst_executed_op_global_atom.sum", "global atomic thread ops", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.GlobalAtomics, ctx) }},
	{"smsp__sass_inst_executed_op_shared_atom.sum", "shared atomic thread ops", "inst",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.SharedAtomics, ctx) }},

	// L2 and DRAM.
	{"lts__t_sectors.sum", "L2 sector accesses", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.L2Sectors, ctx) }},
	{"lts__t_sectors_op_read.sum", "L2 read sectors", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.L2ReadSectors, ctx) }},
	{"lts__t_sectors_op_write.sum", "L2 write sectors", "sector",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.L2WriteSectors, ctx) }},
	{"lts__t_sector_hit_rate.pct", "L2 hit rate", "%",
		func(ctx Context) float64 {
			c := ctx.Result.Counters
			if c.L2Sectors == 0 {
				return 0
			}
			return pct(float64(c.L2Hits) / float64(c.L2Sectors))
		}},
	{"dram__bytes_read.sum", "bytes read from DRAM", "byte",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.DRAMReadBytes, ctx) }},
	{"dram__bytes_write.sum", "bytes written to DRAM", "byte",
		func(ctx Context) float64 { return scaled(ctx.Result.Counters.DRAMWriteBytes, ctx) }},

	// Warp stall percentages (per warp active).
	{"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
		"warps stalled on L1TEX scoreboard dependency", "%", stallPct(sim.StallLongScoreboard)},
	{"smsp__warp_issue_stalled_short_scoreboard_per_warp_active.pct",
		"warps stalled on MIO scoreboard dependency", "%", stallPct(sim.StallShortScoreboard)},
	{"smsp__warp_issue_stalled_lg_throttle_per_warp_active.pct",
		"warps stalled on full LG instruction queue", "%", stallPct(sim.StallLGThrottle)},
	{"smsp__warp_issue_stalled_mio_throttle_per_warp_active.pct",
		"warps stalled on full MIO instruction queue", "%", stallPct(sim.StallMIOThrottle)},
	{"smsp__warp_issue_stalled_tex_throttle_per_warp_active.pct",
		"warps stalled on full TEX instruction queue", "%", stallPct(sim.StallTexThrottle)},
	{"smsp__warp_issue_stalled_barrier_per_warp_active.pct",
		"warps stalled at CTA barrier", "%", stallPct(sim.StallBarrier)},
	{"smsp__warp_issue_stalled_math_pipe_throttle_per_warp_active.pct",
		"warps stalled on busy math pipe", "%", stallPct(sim.StallMathPipeThrottle)},
	{"smsp__warp_issue_stalled_wait_per_warp_active.pct",
		"warps stalled on fixed-latency dependency", "%", stallPct(sim.StallWait)},
	{"smsp__warp_issue_stalled_not_selected_per_warp_active.pct",
		"warps eligible but not selected", "%", stallPct(sim.StallNotSelected)},
	{"smsp__warp_issue_stalled_drain_per_warp_active.pct",
		"warps draining stores at exit", "%", stallPct(sim.StallDrain)},
	{"smsp__warp_issue_stalled_branch_resolving_per_warp_active.pct",
		"warps waiting on branch resolution", "%", stallPct(sim.StallBranchResolving)},
}

var byName = func() map[string]*Metric {
	m := make(map[string]*Metric, len(registry))
	for i := range registry {
		m[registry[i].Name] = &registry[i]
	}
	return m
}()

// Lookup resolves a metric by name.
func Lookup(name string) (*Metric, bool) {
	m, ok := byName[name]
	return m, ok
}

// Value computes a single metric.
func Value(name string, ctx Context) (float64, error) {
	m, ok := Lookup(name)
	if !ok {
		return 0, fmt.Errorf("ncu: unknown metric %q", name)
	}
	return m.Compute(ctx), nil
}
