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
	"slices"

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

	byPC   map[uint64]sim.Stalls
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
		byPC:         make(map[uint64]sim.Stalls, len(res.Counters.PCStalls)),
		byLine:       map[int]sim.Stalls{},
	}
	for s, x := range res.Counters.StallCycles {
		r.Kernel[s] = x / period
	}
	// Iterate PCs in address order: the per-line sums are floating-point
	// accumulations, and Go's randomized map order would make their low
	// bits vary run to run.
	pcs := make([]uint64, 0, len(res.Counters.PCStalls))
	for pc := range res.Counters.PCStalls {
		pcs = append(pcs, pc)
	}
	slices.Sort(pcs)
	for _, pc := range pcs {
		var at sim.Stalls
		for s, x := range res.Counters.PCStalls[pc] {
			at[s] = x / period
		}
		r.byPC[pc] = at
		line := 0
		if in := k.InstAt(pc); in != nil {
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
func (r *Report) AtPC(pc uint64) sim.Stalls { return r.byPC[pc] }

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
	return res.Cycles*samplingSlowdown + fixedCycles +
		perPCCycles*float64(len(res.Counters.PCStalls))
}
