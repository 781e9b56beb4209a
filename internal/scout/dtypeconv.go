package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// DtypeConvAnalysis implements §4.7: datatype conversions (F2F, I2F, F2I,
// I2I) are expensive on GPUs — they increase the instruction count and can
// occupy several pipelines. The analysis reports the total count and each
// conversion's source line.
type DtypeConvAnalysis struct{}

// Name implements Analysis.
func (DtypeConvAnalysis) Name() string { return "datatype_conversion" }

// Describe implements Analysis.
func (DtypeConvAnalysis) Describe() Description {
	return Description{
		Resources: []string{gpu.ResourceIssueWidth},
		DerivedMetrics: func(m *MetricLines) {
			total := m.val("smsp__inst_executed.sum")
			if res := m.rep.Result; total > 0 && res != nil {
				var n uint64
				for op, dyn := range res.Counters.OpcodeDyn {
					if sass.IsConversion(sass.Opcode(op)) {
						n += dyn
					}
				}
				conv := float64(n) * res.Scale
				m.add("conversions are %.2f%% of all executed warp instructions (%.4g of %.4g)",
					100*conv/total, conv, total)
			}
		},
	}
}

// Detect implements Analysis.
func (DtypeConvAnalysis) Detect(v *KernelView) []Finding {
	k := v.Kernel
	var idxs []int
	counts := map[sass.Opcode]int{}
	for i := range k.Insts {
		if sass.IsConversion(k.Insts[i].Op) {
			counts[k.Insts[i].Op]++
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	f := Finding{
		Analysis: "datatype_conversion",
		Title:    "Datatype conversions detected",
		Problem: fmt.Sprintf(
			"%d datatype conversion(s): %d I2F, %d F2I, %d F2F, %d I2I — each costs extra instructions and pipeline utilization",
			len(idxs), counts[sass.OpI2F], counts[sass.OpF2I], counts[sass.OpF2F], counts[sass.OpI2I]),
		Recommendation: "avoid mixing datatypes where feasible (match literal types, keep loop indices out of floating-point expressions); some conversions are inherent to the algorithm and cannot be removed",
		RelevantStalls: []sim.Stall{sim.StallWait, sim.StallMathPipeThrottle},
		RelevantMetrics: []string{
			"smsp__inst_executed.sum",
		},
	}
	v.addSites(&f, idxs, "; inside a for-loop", func(_, i int) string { return k.Insts[i].Mnemonic() + " conversion" })
	return []Finding{f}
}
