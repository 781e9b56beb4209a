package scout

import (
	"fmt"
	"sort"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// VectorLoadAnalysis implements §4.1 / Fig. 3: find groups of narrow
// (32-bit) global loads from the same base register at adjacent offsets
// and recommend vectorized LDG.E.{64,128} accesses.
type VectorLoadAnalysis struct{}

// Name implements Analysis.
func (VectorLoadAnalysis) Name() string { return "vectorized_load" }

// Describe implements Analysis. Instruction-count bound global loads:
// issue slots, memory latency, and raw DRAM throughput.
func (VectorLoadAnalysis) Describe() Description {
	return Description{
		Resources: []string{gpu.ResourceDRAMBandwidth, gpu.ResourceDRAMLatency,
			gpu.ResourceIssueWidth},
		FusedByLDGSTS: true,
		DerivedMetrics: func(m *MetricLines) {
			ldInsts := m.val("smsp__inst_executed_op_global_ld.sum")
			sectors := m.val("l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum")
			if ldInsts > 0 {
				m.add("global loads execute %.4g instructions moving %.4g sectors (%.2f sectors/instruction); vectorizing reduces the instruction count",
					ldInsts, sectors, sectors/ldInsts)
			}
			m.add("current register pressure: %.0f registers/thread at %.1f%% achieved occupancy — check both after vectorizing",
				m.val("launch__registers_per_thread"),
				m.val("sm__warps_active.avg.pct_of_peak_sustained_active"))
		},
	}
}

// narrowLoad reports whether the indexed load at i is a scalar 32-bit
// LDG, the only kind that can be widened.
func (v *KernelView) narrowLoad(i int) bool {
	in := &v.Kernel.Insts[i]
	return !in.IsVectorized() && in.WidthBytes() == 4
}

// Detect implements Analysis.
func (VectorLoadAnalysis) Detect(v *KernelView) []Finding {
	var findings []Finding
	for _, g := range v.loadGroups(v.narrowLoad) {
		run := longestAdjacentRun(g.Offs)
		if run < 2 {
			continue
		}
		width := "64-bit (2 elements)"
		if run >= 4 {
			width = "128-bit (4 elements)"
		}
		f := Finding{
			Analysis: "vectorized_load",
			Title:    "Use vectorized global loads",
			Problem: fmt.Sprintf(
				"%d non-vectorized 32-bit global loads (LDG.E) read adjacent addresses off base register %s; each costs one instruction and one memory transaction",
				len(g.Idxs), g.Base),
			Recommendation: fmt.Sprintf(
				"combine adjacent loads into %s vectorized accesses (e.g. reinterpret_cast<float4*>), reducing the number of load instructions executed", width),
			RelevantStalls: []sim.Stall{sim.StallLongScoreboard, sim.StallLGThrottle},
			RelevantMetrics: []string{
				"smsp__inst_executed_op_global_ld.sum",
				"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum",
				"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
			},
			CautionMetrics: []string{
				"launch__registers_per_thread",
				"sm__warps_active.avg.pct_of_peak_sustained_active",
			},
		}
		v.addSites(&f, g.Idxs, "; inside a for-loop", func(n, i int) string {
			return fmt.Sprintf("offset %+d from [%s]; +%d registers live here",
				g.Offs[n], g.Base, v.Liveness.ExtraRegs(i))
		})
		findings = append(findings, f)
	}
	return findings
}

// longestAdjacentRun returns the length of the longest run of offsets
// spaced exactly 4 bytes apart.
func longestAdjacentRun(offs []int64) int {
	s := append([]int64(nil), offs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	best, cur := 1, 1
	for i := 1; i < len(s); i++ {
		switch s[i] - s[i-1] {
		case 4:
			cur++
		case 0:
			continue
		default:
			cur = 1
		}
		if cur > best {
			best = cur
		}
	}
	if len(s) == 0 {
		return 0
	}
	return best
}
