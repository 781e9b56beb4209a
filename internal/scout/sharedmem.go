package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// SharedMemAnalysis implements §4.3 / Fig. 4: global loads whose data is
// used repeatedly — the same address loaded more than once, or a load
// inside a for-loop feeding several arithmetic instructions — are
// candidates for staging in shared memory.
type SharedMemAnalysis struct{}

// minArithUses is the Fig. 4 arithmetic-instruction threshold.
const minArithUses = 2

// Name implements Analysis.
func (SharedMemAnalysis) Name() string { return "shared_memory" }

// stagingCautions lists what to watch after any of the three patterns'
// fix moves data into shared memory (§4.3): the bank-conflict ratio
// (transactions/accesses) and MIO pressure.
func stagingCautions() []string {
	return []string{
		"l1tex__data_pipe_lsu_wavefronts_mem_shared_op_ld.sum",
		"smsp__inst_executed_op_shared_ld.sum",
		"smsp__warp_issue_stalled_mio_throttle_per_warp_active.pct",
		"smsp__warp_issue_stalled_short_scoreboard_per_warp_active.pct",
	}
}

// Describe implements Analysis. Staging into shared memory trades global
// latency/bandwidth for bank-limited on-chip accesses.
func (SharedMemAnalysis) Describe() Description {
	return Description{
		Resources: []string{gpu.ResourceDRAMLatency, gpu.ResourceDRAMBandwidth,
			gpu.ResourceL1Capacity, gpu.ResourceSharedBanks},
		DerivedMetrics: bankConflictRatio,
	}
}

// Detect implements Analysis. Each pattern flags loads of the global-load
// index, keyed by instruction index so its sites sort into program order.
func (SharedMemAnalysis) Detect(v *KernelView) []Finding {
	k := v.Kernel
	reused, stencil, uniform := map[int]string{}, map[int]string{}, map[int]string{}
	tainted := tidXTaint(v)
	for _, g := range v.Loads {
		// Loads per (base, base version, offset) address, and the window
		// the group's distinct offsets span.
		loadsAt := map[int64]int{}
		lo, hi := g.Offs[0], g.Offs[0] // a group is never empty
		for _, off := range g.Offs {
			lo, hi = min(lo, off), max(hi, off)
			loadsAt[off]++
		}
		// Second pattern (§5.2 Jacobi): a stencil neighborhood. Several loads
		// off the SAME base address at small offsets straddling zero mean each
		// thread fetches its own element plus neighbors — adjacent threads
		// re-fetch overlapping data from global memory, the halo pattern whose
		// repair is shared-memory tiling. The within-thread reuse check below
		// cannot see this: every loaded value is used once per thread, the
		// reuse is across threads. A centered window: at least three distinct
		// offsets, neighbors on both sides of the thread's own element, within
		// a cache line each way.
		window := len(loadsAt) >= 3 && lo < 0 && hi > 0 && hi-lo <= 256
		for n, i := range g.Idxs {
			if window {
				stencil[i] = fmt.Sprintf(
					"neighbor load at offset %+d of a %d-point window [%+d..%+d]",
					g.Offs[n], len(loadsAt), lo, hi)
			}
			in := &k.Insts[i]
			if len(in.Dst) == 0 || in.Dst[0].Kind != sass.OpdReg {
				continue
			}
			dst := in.Dst[0].Reg
			// Scope the count to this load's value: the allocator recycles
			// registers, and an unrelated later value's arithmetic must not
			// be credited to the load (sgemm_shared's staging loads would
			// otherwise inherit the tile-compute FFMAs).
			arith := v.DefUse.ArithUseCountAt(dst, i)
			repeated := loadsAt[g.Offs[n]] > 1
			inLoop := v.CFG.InLoop(i)
			// Fig. 4: repeated access to the same data AND arithmetic use;
			// a loop amplifies the load's execution count.
			if arith >= minArithUses && (repeated || inLoop) {
				note := fmt.Sprintf("register %s: %d arithmetic use(s)", dst, arith)
				if repeated {
					note += fmt.Sprintf("; address loaded %d times", loadsAt[g.Offs[n]])
				}
				if inLoop {
					note += "; load inside a for-loop (repeated global requests)"
				}
				reused[i] = note
			}
			// Third pattern (§5.3 SGEMM): a warp-uniform load in a loop. When a
			// loop load's address never depends on tid.x, all 32 lanes of a warp
			// request the same element every iteration — data that one thread
			// could stage into shared memory for the whole block. The naive SGEMM
			// inner product is the canonical case: its k-walking operand varies
			// only with the loop counter and tid.y.
			if inLoop && arith > 0 && !tainted[regDef{g.Base, g.Def}] {
				uniform[i] = fmt.Sprintf(
					"address (base %s) is uniform across the warp: every lane requests the same element each iteration",
					dst)
			}
		}
	}
	// flag attaches one pattern's loads to its finding, in program order.
	flag := func(f *Finding, notes map[int]string) {
		v.addSites(f, sortedKeys(notes), "", func(_, i int) string { return notes[i] })
	}

	var out []Finding
	if len(uniform) > 0 {
		uf := Finding{
			Analysis: "shared_memory",
			Title:    "Stage warp-uniform loop data in shared memory",
			Problem: fmt.Sprintf(
				"%d global load(s) in a loop use an address that does not depend on threadIdx.x; all 32 lanes of each warp fetch the same element every iteration, multiplying global traffic for data the block shares",
				len(uniform)),
			Recommendation: "stage the shared operand into __shared__ memory cooperatively (each thread copies a slice, then __syncthreads()), and read it from the tile inside the loop",
			InLoop:         true,
			RelevantStalls: []sim.Stall{sim.StallLongScoreboard},
			RelevantMetrics: []string{
				"smsp__inst_executed_op_global_ld.sum",
				"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
			},
			CautionMetrics: stagingCautions(),
		}
		flag(&uf, uniform)
		out = append(out, uf)
	}
	if len(stencil) > 0 {
		sf := Finding{
			Analysis: "shared_memory",
			Title:    "Stage the stencil neighborhood in shared memory",
			Problem: fmt.Sprintf(
				"%d global load(s) fetch a window of neighboring elements around each thread's own; adjacent threads re-request overlapping data from global memory every iteration",
				len(stencil)),
			Recommendation: "tile the block's working set (plus a halo) into __shared__ memory once, synchronize with __syncthreads(), and read neighbors from the tile; overlapping fetches then hit shared memory instead of L1TEX",
			RelevantStalls: []sim.Stall{sim.StallLongScoreboard},
			RelevantMetrics: []string{
				"smsp__inst_executed_op_global_ld.sum",
				"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum",
				"l1tex__t_sector_pipe_lsu_mem_global_op_ld_hit_rate.pct",
			},
			CautionMetrics: stagingCautions(),
		}
		flag(&sf, stencil)
		out = append(out, sf)
	}

	if len(reused) == 0 {
		return out
	}

	f := Finding{
		Analysis: "shared_memory",
		Title:    "Consider staging reused global data in shared memory",
		Problem: fmt.Sprintf(
			"%d global load(s) feed repeated arithmetic on the same data; every repetition pays global-memory latency that shared memory (low-latency, per-block) would avoid",
			len(reused)),
		Recommendation: "copy the reused data into __shared__ memory once per block (with __syncthreads()), and compute from there; profitable only when the data is reused enough to amortize the staging cost",
		RelevantStalls: []sim.Stall{sim.StallLongScoreboard},
		RelevantMetrics: []string{
			"smsp__inst_executed_op_global_ld.sum",
			"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
		},
		CautionMetrics: stagingCautions(),
	}
	flag(&f, reused)
	return append(out, f)
}
