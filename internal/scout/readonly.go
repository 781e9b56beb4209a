package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// ReadOnlyAnalysis implements §4.5: global loads whose pointer is never
// stored through and whose destination registers stay read-only for the
// rest of the kernel can be marked const __restrict__, letting the
// compiler route them through the read-only data cache (LDG.E.NC) and
// reorder accesses more aggressively.
type ReadOnlyAnalysis struct{}

// Name implements Analysis.
func (ReadOnlyAnalysis) Name() string { return "readonly_cache" }

// Describe implements Analysis. Read-only/texture routing pays off when
// cache capacity or memory latency is the binding resource.
func (ReadOnlyAnalysis) Describe() Description {
	return Description{
		Resources:     []string{gpu.ResourceL1Capacity, gpu.ResourceL2Capacity, gpu.ResourceDRAMLatency},
		FusedByLDGSTS: true,
		DerivedMetrics: func(m *MetricLines) {
			tex := m.val("l1tex__t_sectors_pipe_tex_mem_texture.sum")
			if tex > 0 {
				m.add("texture/read-only path: %.4g sectors requested (%.4g B), %.1f%% hit the texture cache",
					tex, tex*m.secB, m.val("l1tex__t_sector_pipe_tex_mem_texture_hit_rate.pct"))
			}
		},
	}
}

// Detect implements Analysis.
func (ReadOnlyAnalysis) Detect(v *KernelView) []Finding {
	// One finding per base-pointer register: the index lists a register's
	// groups adjacently and in definition order, which for one register is
	// program order, so concatenating them keeps the sites ordered.
	groups := v.loadGroups(v.readOnlyLoad)
	var findings []Finding
	for n := 0; n < len(groups); {
		base := groups[n].Base
		var idxs []int
		for ; n < len(groups) && groups[n].Base == base; n++ {
			idxs = append(idxs, groups[n].Idxs...)
		}
		f := Finding{
			Analysis: "readonly_cache",
			Title:    "Mark read-only pointer with const __restrict__",
			Problem: fmt.Sprintf(
				"%d global load(s) through pointer pair %s/%s are read-only for the whole kernel and the pointer is never stored through — but they do not use the read-only data cache (no LDG.E.NC)",
				len(idxs), base, base+1),
			Recommendation: "declare the kernel parameter as const T* __restrict__: the compiler can route loads through the read-only cache and optimize the order of memory accesses",
			RelevantStalls: []sim.Stall{sim.StallLongScoreboard},
			RelevantMetrics: []string{
				"l1tex__t_sectors_pipe_tex_mem_texture.sum",
				"l1tex__t_sector_pipe_tex_mem_texture_hit_rate.pct",
				"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
			},
			CautionMetrics: []string{
				// §4.5: "unless the corresponding register pressure is too
				// high" — the compiler may extend live ranges.
				"launch__registers_per_thread",
				"sm__warps_active.avg.pct_of_peak_sustained_active",
			},
		}
		v.addSites(&f, idxs, "", func(_, i int) string {
			return fmt.Sprintf("read-only load; +%d registers live here", v.Liveness.ExtraRegs(i))
		})
		findings = append(findings, f)
	}
	return findings
}
