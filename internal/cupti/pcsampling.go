// Package cupti is the stand-in for the NVIDIA CUPTI PC Sampling API
// (§2.2): it turns the simulator's exact per-PC stall-cycle integrals into
// periodic PC samples with stall reasons and source-line attribution, the
// data GPUscout's Warp Stalls pillar consumes: one sim.Stalls vector for
// the kernel, per PC and per source line.
//
// Samples are synthesized deterministically as integral/period — the same
// statistics a hardware periodic sampler converges to, without sampling
// noise.
package cupti

import (
	"fmt"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// Config controls sample synthesis.
type Config struct {
	// PeriodCycles is the sampling period in SM cycles. CUPTI exposes
	// power-of-two periods; the default is 2048.
	PeriodCycles float64
}

// Report is the PC-sampling profile of one kernel launch: samples per
// stall reason over the whole kernel, at each sampled PC and on each
// source line. Which reasons count as stalls is sim.Stalls' decision.
type Report struct {
	PeriodCycles float64
	// Kernel holds each reason's StallCycles / PeriodCycles. A report
	// total is a sum of these quotients; (ΣStallCycles)/PeriodCycles
	// would move its low bits.
	Kernel sim.Stalls

	byPC   []sim.Stalls // indexed by PC / sass.InstBytes, like sim.Counters.PCStalls
	byLine map[int]sim.Stalls
}

// siteCollect is the fault-injection site covering sample synthesis.
var siteCollect = faultinject.Register("cupti.collect")

// Collect synthesizes the PC-sampling profile of a finished launch.
func Collect(k *sass.Kernel, res *sim.Result, cfg Config) (*Report, error) {
	if err := faultinject.Hit(siteCollect); err != nil {
		return nil, fmt.Errorf("cupti: %w", err)
	}
	if res == nil || res.Counters == nil {
		return nil, fmt.Errorf("cupti: no simulation result")
	}
	period := cfg.PeriodCycles
	if period <= 0 {
		period = 2048
	}
	r := &Report{
		PeriodCycles: period,
		byPC:         make([]sim.Stalls, len(res.Counters.PCStalls)),
		byLine:       map[int]sim.Stalls{},
	}
	for s, x := range res.Counters.StallCycles {
		r.Kernel[s] = x / period
	}
	// Walk the instructions in PC order: the per-line sums are
	// floating-point accumulations, so their order fixes their low bits.
	for i, integ := range res.Counters.PCStalls {
		if integ == (sim.Stalls{}) {
			continue
		}
		at := &r.byPC[i]
		for s, x := range integ {
			at[s] = x / period
		}
		line := 0
		if in := k.InstAt(uint64(i) * sass.InstBytes); in != nil {
			line = in.Line
		}
		ln := r.byLine[line]
		for s, x := range at {
			ln[s] += x
		}
		r.byLine[line] = ln
	}
	return r, nil
}

// AtPC returns the per-reason sample counts at one PC.
func (r *Report) AtPC(pc uint64) sim.Stalls {
	if i := pc / sass.InstBytes; i < uint64(len(r.byPC)) {
		return r.byPC[i]
	}
	return sim.Stalls{}
}

// AtLine returns the per-reason sample counts summed over the
// instructions attributed to a source line, in PC order.
func (r *Report) AtLine(line int) sim.Stalls { return r.byLine[line] }

// CollectionCycles models the runtime cost of PC sampling for the
// overhead analysis (Fig. 6): the kernel runs once under sampling with a
// small serialization slowdown, plus a fixed attach/flush cost that grows
// with the number of distinct PCs sampled.
func CollectionCycles(res *sim.Result) float64 {
	const (
		samplingSlowdown = 1.18
		fixedCycles      = 2.0e6
		perPCCycles      = 5.0e3
	)
	sampled := 0
	for _, integ := range res.Counters.PCStalls {
		if integ != (sim.Stalls{}) {
			sampled++
		}
	}
	return res.Cycles*samplingSlowdown + fixedCycles + perPCCycles*float64(sampled)
}
