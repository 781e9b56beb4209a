package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// SharedAtomicAnalysis implements §4.4: frequent global atomics serialize
// device-wide (resolved in L2), while shared atomics serialize only within
// a thread block. The paper (footnote 2) runs this analysis on PTX; the
// state space it reads there is the SASS opcode here (ATOM/RED are
// atom.global/red.global, ATOMS is atom.shared), so the finding keeps
// the paper's vocabulary over a count of SASS instructions.
type SharedAtomicAnalysis struct{}

// Name implements Analysis.
func (SharedAtomicAnalysis) Name() string { return "shared_atomics" }

// Describe implements Analysis.
func (SharedAtomicAnalysis) Describe() Description {
	return Description{
		Resources: []string{gpu.ResourceDRAMLatency, gpu.ResourceL2Capacity, gpu.ResourceSharedBanks},
		DerivedMetrics: func(m *MetricLines) {
			m.add("global atomics: %.4g thread ops; shared atomics: %.4g thread ops; atomic requests usually miss L1 entirely and resolve in L2 (hit rate %.1f%%) or DRAM",
				m.val("smsp__sass_inst_executed_op_global_atom.sum"),
				m.val("smsp__sass_inst_executed_op_shared_atom.sum"),
				m.val("lts__t_sector_hit_rate.pct"))
		},
	}
}

// Detect implements Analysis.
func (SharedAtomicAnalysis) Detect(v *KernelView) []Finding {
	k := v.Kernel
	// The global atomics are also the finding's sites.
	var idxs []int
	shared := 0
	for i := range k.Insts {
		switch op := k.Insts[i].Op; {
		case !sass.IsAtomic(op):
		case sass.ClassOf(op) == sass.ClassShared:
			shared++
		default:
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil
	}

	f := Finding{
		Analysis: "shared_atomics",
		Title:    "Frequent global atomics: consider shared-memory atomics",
		Problem: fmt.Sprintf(
			"PTX analysis finds %d global atomic(s) (atom.global/red.global) vs %d shared atomic(s); a global atomic is a kernel-wide serialization typically resolved in the L2 cache",
			len(idxs), shared),
		Recommendation: "accumulate per-block partial results with shared-memory atomics (block-level serialization) and combine them with one global atomic per block; note shared atomics only synchronize within one thread block",
		RelevantStalls: []sim.Stall{sim.StallLGThrottle},
		RelevantMetrics: []string{
			"smsp__sass_inst_executed_op_global_atom.sum",
			"smsp__sass_inst_executed_op_shared_atom.sum",
			"lts__t_sector_hit_rate.pct",
			"smsp__warp_issue_stalled_lg_throttle_per_warp_active.pct",
		},
		CautionMetrics: []string{
			// §4.4: shared atomics load the MIO pipelines.
			"smsp__warp_issue_stalled_mio_throttle_per_warp_active.pct",
			"smsp__warp_issue_stalled_short_scoreboard_per_warp_active.pct",
		},
	}

	// The loop amplification the paper warns about ("especially detected
	// in a for-loop").
	v.addSites(&f, idxs, "; inside a for-loop: repeated serialization amplifies the penalty", func(_, i int) string {
		return "global atomic (" + k.Insts[i].Mnemonic() + "); typically a 100% L1 miss, resolved in L2 or DRAM"
	})
	if f.InLoop {
		f.Severity = SeverityWarning
	}
	return []Finding{f}
}
