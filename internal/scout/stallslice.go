package scout

import (
	"gpuscout/internal/cupti"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// Slice walk bounds: enough hops to cross address arithmetic -> load ->
// consumer chains, small enough that reports stay readable.
const (
	sliceMaxDepth = 4
	sliceMaxInsts = 8
	sliceMaxPerF  = 2 // slices per finding (one per hottest site)
)

// stallSlices builds the LEO-style backward slices for a finding: for
// each flagged site, find the instruction where the stall actually
// surfaces (the site itself or the consumer of its result — stalls bill
// to the instruction *waiting* on the scoreboard), then walk def-use
// chains backward to the producers. Sites are ranked by stall samples;
// only the hottest few get a slice.
func stallSlices(f *Finding, rep *Report) []StallSlice {
	if rep.view == nil || rep.Samples == nil {
		return nil
	}
	var out []StallSlice
	seen := map[uint64]bool{}
	for _, s := range f.Sites {
		if len(out) >= sliceMaxPerF {
			break
		}
		idx := int(s.PC / sass.InstBytes)
		if idx >= len(rep.view.Kernel.Insts) {
			continue
		}
		stalled, samples, reason := stalledConsumer(rep.view, rep.Samples, idx)
		if samples <= 0 {
			continue
		}
		pc := rep.view.Kernel.Insts[stalled].PC
		if seen[pc] {
			continue
		}
		seen[pc] = true
		steps := rep.view.DefUse.BackwardSlice(stalled, sliceMaxDepth, sliceMaxInsts)
		if len(steps) < 2 {
			continue // a slice that is just the root explains nothing
		}
		sl := StallSlice{
			PC:      pc,
			Line:    rep.view.Kernel.Insts[stalled].Line,
			Stall:   reason.String(),
			Samples: samples,
		}
		for _, st := range steps {
			in := &rep.view.Kernel.Insts[st.Index]
			file := in.File
			if file == "" {
				file = rep.view.Kernel.SourceFile
			}
			reg := ""
			if st.Depth > 0 {
				reg = st.Reg.String()
			}
			sl.Steps = append(sl.Steps, SliceStep{
				PC: in.PC, Line: in.Line, File: file,
				Depth: st.Depth, Reg: reg, SASS: in.String(),
			})
		}
		out = append(out, sl)
	}
	return out
}

// stalledConsumer picks the instruction where the stall caused by the
// instruction at idx surfaces: among idx itself and the consumers of its
// destination registers (uses before the next redefinition), the PC with
// the most non-bookkeeping stall samples. Returns its index, sample
// count, and dominant stall reason.
func stalledConsumer(view *KernelView, samples *cupti.Report, idx int) (int, float64, sim.Stall) {
	k := view.Kernel
	candidates := []int{idx}
	for _, r := range k.Insts[idx].DstRegs(nil) {
		candidates = append(candidates, view.DefUse.UsesAfter(r, idx)...)
	}
	best, bestSamples := idx, 0.0
	var bestStall sim.Stall
	for _, c := range candidates {
		agg := samples.AtPC(k.Insts[c].PC)
		if total := agg.Exposed(); total > bestSamples {
			best, bestSamples, bestStall = c, total, agg.Top(1)[0]
		}
	}
	return best, bestSamples, bestStall
}
