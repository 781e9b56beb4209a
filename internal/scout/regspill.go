package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// RegSpillAnalysis implements §4.2: STL/LDL instructions indicate register
// spilling to local memory. The detector names the spilled register, the
// source line, and — "an optimistic assumption" per the paper — the last
// arithmetic operation that wrote the register and thereby caused the
// spill (as shown in the Fig. 2 sample output).
type RegSpillAnalysis struct{}

// Name implements Analysis.
func (RegSpillAnalysis) Name() string { return "register_spilling" }

// Describe implements Analysis. Spills live in local memory: L1/L2
// capacity absorb them, latency exposes them.
func (RegSpillAnalysis) Describe() Description {
	return Description{
		Resources: []string{gpu.ResourceL1Capacity, gpu.ResourceL2Capacity, gpu.ResourceDRAMLatency},
		DerivedMetrics: func(m *MetricLines) {
			localInsts := m.val("smsp__inst_executed_op_local_ld.sum") + m.val("smsp__inst_executed_op_local_st.sum")
			missPct := 100 - m.val("l1tex__t_sector_pipe_lsu_mem_local_op_ld_hit_rate.pct")
			numSMs := float64(m.rep.Result.NumSMs)
			// §2.3: #SMs * (% cache miss) * (local memory instructions).
			m.add("estimated queries to L2 due to local memory = #SMs x miss%% x local insts = %.0f x %.1f%% x %.0f = %.4g",
				numSMs, missPct, localInsts/numSMs, missPct/100*localInsts)
			localSect := m.val("l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum") + m.val("l1tex__t_sectors_pipe_lsu_mem_local_op_st.sum")
			totalSect := localSect + m.val("l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum") + m.val("l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum")
			if totalSect > 0 {
				m.add("local memory causes %.1f%% of the L1TEX sector traffic (%.4g of %.4g sectors, %.4g B)",
					100*localSect/totalSect, localSect, totalSect, localSect*m.secB)
			}
		},
	}
}

// Detect implements Analysis.
func (RegSpillAnalysis) Detect(v *KernelView) []Finding {
	k := v.Kernel
	var idxs []int
	spills, reloads := 0, 0
	for i := range k.Insts {
		switch k.Insts[i].Op {
		case sass.OpSTL:
			spills++
			idxs = append(idxs, i)
		case sass.OpLDL:
			reloads++
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	maxP, at := v.Liveness.MaxPressure()
	f := Finding{
		Analysis: "register_spilling",
		Title:    "Register spilling to local memory detected",
		Problem: fmt.Sprintf(
			"%d spill stores (STL) and %d reloads (LDL) — the kernel needs more registers than available (%d allocated; peak live pressure %d at PC %#x, %d B of local memory per thread), creating extra memory traffic through L1 and L2",
			spills, reloads, k.NumRegs, maxP, k.Insts[at].PC, k.LocalBytes),
		Recommendation: "reduce simultaneously-live values (split the kernel, reduce unrolling, recompute instead of keeping values), or raise the register budget (-maxrregcount / __launch_bounds__) if occupancy allows",
		RelevantStalls: []sim.Stall{sim.StallLGThrottle, sim.StallLongScoreboard},
		RelevantMetrics: []string{
			"launch__local_mem_per_thread",
			"smsp__inst_executed_op_local_ld.sum",
			"smsp__inst_executed_op_local_st.sum",
			"l1tex__t_sectors_pipe_lsu_mem_local_op_ld.sum",
			"l1tex__t_sectors_pipe_lsu_mem_local_op_st.sum",
			"l1tex__t_sector_pipe_lsu_mem_local_op_ld_hit_rate.pct",
			"lts__t_sectors.sum",
			"smsp__warp_issue_stalled_lg_throttle_per_warp_active.pct",
			"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
		},
		CautionMetrics: []string{
			"sm__warps_active.avg.pct_of_peak_sustained_active",
		},
	}
	v.addSites(&f, idxs, "; inside a for-loop", func(_, i int) string {
		in := &k.Insts[i]
		if in.Op == sass.OpLDL {
			return "spilled value reloaded from local memory"
		}
		reg := sass.RZ
		if len(in.Src) > 0 && in.Src[0].Kind == sass.OpdReg {
			reg = in.Src[0].Reg
		}
		note := fmt.Sprintf("register %s spilled to local memory; live register pressure here: %d",
			reg, v.Liveness.PressureAt(i))
		if cause := v.DefUse.LastDefBefore(reg, i); cause >= 0 {
			ci := &k.Insts[cause]
			note += fmt.Sprintf("; previous write by %s at line %d", ci.Op, ci.Line)
		}
		return note
	})
	return []Finding{f}
}
