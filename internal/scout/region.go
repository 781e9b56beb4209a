package scout

import (
	"fmt"
	"strings"

	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// RegionProfile is the §7 future-work feature ("injecting PTX
// instructions around specific code regions of interest to collect
// further metrics"), realized without instrumentation: the simulator's
// exact per-PC integrals are sliced to a source-line range, yielding the
// same per-region characterization region markers would produce.
type RegionProfile struct {
	Kernel             string
	FromLine, ToLine   int
	Instructions       []uint64 // PCs attributed to the region
	IssuedWarpInsts    float64  // warp instructions issued in the region
	StallSamples       float64  // non-bookkeeping stall samples in the region
	ShareOfKernel      float64  // region stall samples / kernel stall samples
	TopStalls          []RegionStall
	MemoryInstructions map[string]int // static counts by space (global/shared/local/texture/atomic)
}

// RegionStall is one stall reason's share within the region.
type RegionStall struct {
	Stall sim.Stall
	Share float64
}

// ProfileRegion computes the profile of the source-line range
// [fromLine, toLine]. It requires a non-dry-run report.
func (r *Report) ProfileRegion(fromLine, toLine int) (*RegionProfile, error) {
	if r.Samples == nil || r.kernel == nil {
		return nil, fmt.Errorf("scout: region profiling needs a full (non-dry-run) report")
	}
	if fromLine > toLine {
		return nil, fmt.Errorf("scout: empty region %d..%d", fromLine, toLine)
	}
	p := &RegionProfile{
		Kernel:             r.Kernel,
		FromLine:           fromLine,
		ToLine:             toLine,
		MemoryInstructions: map[string]int{},
	}

	var region sim.Stalls
	for i := range r.kernel.Insts {
		in := &r.kernel.Insts[i]
		if in.Line < fromLine || in.Line > toLine {
			continue
		}
		p.Instructions = append(p.Instructions, in.PC)
		for s, x := range r.Samples.AtPC(in.PC) {
			region[s] += x
		}
		// One "selected" cycle per issued warp instruction.
		p.IssuedWarpInsts += r.Result.Counters.PCStalls[in.PC/sass.InstBytes][sim.StallSelected]
		switch c := sass.ClassOf(in.Op); {
		case sass.IsAtomic(in.Op):
			p.MemoryInstructions["atomic"]++
		case (sass.IsLoad(in.Op) || sass.IsStore(in.Op)) && c != sass.ClassConst:
			p.MemoryInstructions[c.String()]++
		}
	}
	if len(p.Instructions) == 0 {
		return nil, fmt.Errorf("scout: no instructions attributed to lines %d..%d", fromLine, toLine)
	}

	p.StallSamples = region.Exposed()
	if kernel := r.Samples.Kernel.Exposed(); kernel > 0 {
		p.ShareOfKernel = p.StallSamples / kernel
	}
	for _, s := range region.Top(len(region)) {
		p.TopStalls = append(p.TopStalls, RegionStall{s, region[s] / p.StallSamples})
	}
	return p, nil
}

// Render formats the region profile as text.
func (p *RegionProfile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Region profile — %s, lines %d..%d\n", p.Kernel, p.FromLine, p.ToLine)
	fmt.Fprintf(&b, "  %d SASS instructions; %.4g warp instructions issued\n",
		len(p.Instructions), p.IssuedWarpInsts)
	fmt.Fprintf(&b, "  %.4g stall samples = %.1f%% of the kernel's stalls\n",
		p.StallSamples, 100*p.ShareOfKernel)
	if len(p.MemoryInstructions) > 0 {
		b.WriteString("  memory instructions:")
		for _, k := range sortedKeys(p.MemoryInstructions) {
			fmt.Fprintf(&b, " %s=%d", k, p.MemoryInstructions[k])
		}
		b.WriteString("\n")
	}
	for i, ts := range p.TopStalls {
		if i >= 4 {
			break
		}
		fmt.Fprintf(&b, "  %-22s %6.1f%%\n", ts.Stall, 100*ts.Share)
	}
	return b.String()
}
