package scout

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// BankConflictAnalysis is an added detector (the paper's §7 notes that
// "more SASS analyses can be added very easily" thanks to the modular
// design — this is one). It statically predicts shared-memory bank
// conflicts: a shared access whose address is threadIdx.x times a
// multiple of 128 bytes (32 banks x 4 B) maps every lane of a warp to the
// same bank — the classic unpadded-tile column read, fully serialized
// 32 ways. The §4.3 transactions/accesses metric confirms the prediction
// at runtime.
type BankConflictAnalysis struct {
	// Banks is the bank count (default 32).
	Banks int
}

// Name implements Analysis.
func (BankConflictAnalysis) Name() string { return "bank_conflicts" }

// Describe implements Analysis.
func (BankConflictAnalysis) Describe() Description {
	return Description{Resources: []string{gpu.ResourceSharedBanks}, DerivedMetrics: bankConflictRatio}
}

// bankConflictRatio is the derived metric this detector shares with
// §4.3: transactions per access approximates the n-way bank conflict
// (1 = conflict-free, 32 = fully serialized).
func bankConflictRatio(m *MetricLines) {
	acc := m.val("smsp__inst_executed_op_shared_ld.sum")
	trans := m.val("l1tex__data_pipe_lsu_wavefronts_mem_shared_op_ld.sum")
	if acc > 0 {
		m.add("shared-memory bank conflict ratio = %.4g transactions / %.4g accesses = %.2f-way (1.0 = conflict-free)",
			trans, acc, trans/acc)
	} else {
		m.add("kernel currently uses no shared memory; after the change, watch the bank-conflict ratio (transactions/accesses)")
	}
}

// Detect implements Analysis.
func (a BankConflictAnalysis) Detect(v *KernelView) []Finding {
	banks := a.Banks
	if banks <= 0 {
		banks = 32
	}
	rowBytes := int64(banks * 4)
	k := v.Kernel

	var idxs []int
	var strides []int64
	for i := range k.Insts {
		in := &k.Insts[i]
		if sass.ClassOf(in.Op) != sass.ClassShared || sass.IsAtomic(in.Op) {
			continue
		}
		mem, ok := in.MemOperand()
		if !ok || mem.Reg == sass.RZ {
			continue
		}
		stride, lane := a.laneStride(v, mem.Reg, i)
		if lane && stride > 0 && stride%rowBytes == 0 {
			idxs, strides = append(idxs, i), append(strides, stride)
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	f := Finding{
		Analysis: "bank_conflicts",
		Title:    "Shared-memory bank conflicts predicted",
		Problem: fmt.Sprintf(
			"%d shared-memory access(es) stride threadIdx.x by a multiple of %d bytes, so all 32 lanes of a warp hit one bank and serialize",
			len(idxs), rowBytes),
		Recommendation: "pad the shared array's row pitch (e.g. [32][33] instead of [32][32]) or swizzle the indexing so consecutive lanes touch consecutive banks",
		RelevantStalls: []sim.Stall{sim.StallShortScoreboard, sim.StallMIOThrottle},
		RelevantMetrics: []string{
			// The §4.3 ratio: transactions / accesses.
			"l1tex__data_pipe_lsu_wavefronts_mem_shared_op_ld.sum",
			"smsp__inst_executed_op_shared_ld.sum",
			"smsp__warp_issue_stalled_short_scoreboard_per_warp_active.pct",
			"smsp__warp_issue_stalled_mio_throttle_per_warp_active.pct",
		},
	}
	v.addSites(&f, idxs, "; inside a for-loop", func(n, _ int) string {
		return fmt.Sprintf(
			"shared address = threadIdx.x * %d bytes: every lane maps to the same bank (predicted %d-way conflict)",
			strides[n], banks)
	})
	return []Finding{f}
}

// laneStride inspects the reaching definition of a shared-address
// register. When it is an IMAD of threadIdx.x (directly off S2R
// SR_TID.X) by an immediate, it returns that byte stride.
func (a BankConflictAnalysis) laneStride(v *KernelView, base sass.Reg, at int) (stride int64, laneVarying bool) {
	def := v.DefUse.LastDefBefore(base, at)
	if def < 0 {
		return 0, false
	}
	in := &v.Kernel.Insts[def]
	if in.Op != sass.OpIMAD || in.HasMod("WIDE") || len(in.Src) < 2 {
		return 0, false
	}
	// Find the immediate multiplier and the register factor.
	var imm int64
	var reg sass.Reg = sass.RZ
	hasImm := false
	for _, o := range in.Src[:2] {
		switch o.Kind {
		case sass.OpdImm:
			imm, hasImm = o.Imm, true
		case sass.OpdReg:
			reg = o.Reg
		}
	}
	if !hasImm || reg == sass.RZ {
		return 0, false
	}
	// The register factor must be threadIdx.x itself (one hop to S2R).
	rdef := v.DefUse.LastDefBefore(reg, def)
	if rdef < 0 {
		return 0, false
	}
	src := &v.Kernel.Insts[rdef]
	if src.Op != sass.OpS2R || len(src.Src) == 0 ||
		src.Src[0].Kind != sass.OpdSpecial || src.Src[0].Special != sass.SRTidX {
		return 0, false
	}
	return imm, true
}
