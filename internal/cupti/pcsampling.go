// Package cupti is the stand-in for the NVIDIA CUPTI PC Sampling API
// (§2.2): it turns the simulator's exact per-PC stall-cycle integrals into
// periodic PC samples with stall reasons and source-line attribution, the
// data GPUscout's Warp Stalls pillar consumes.
//
// Samples are synthesized deterministically as integral/period — the same
// statistics a hardware periodic sampler converges to, without sampling
// noise.
package cupti

import (
	"fmt"
	"sort"

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

// Sample is one aggregated PC-sampling record: how many samples landed on
// pc with the given stall reason.
type Sample struct {
	PC      uint64
	Line    int
	File    string
	Stall   sim.Stall
	Samples float64
}

// Report is the result of collecting PC samples for one kernel launch.
type Report struct {
	Kernel       string
	PeriodCycles float64
	TotalSamples float64
	Samples      []Sample // sorted by PC, then stall reason

	byPC   map[uint64]*[sim.NumStalls]float64
	byLine map[int]*[sim.NumStalls]float64
}

// siteCollect is the fault-injection site covering sample synthesis.
var siteCollect = faultinject.Register("cupti.collect")

// Collect synthesizes the PC-sampling report for a finished launch.
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
		Kernel:       k.Name,
		PeriodCycles: period,
		byPC:         map[uint64]*[sim.NumStalls]float64{},
		byLine:       map[int]*[sim.NumStalls]float64{},
	}
	// Iterate PCs in address order: the sums below are floating-point
	// accumulations, and Go's randomized map order would make the low bits
	// of TotalSamples and the per-line aggregates vary run to run.
	pcs := make([]uint64, 0, len(res.Counters.PCStalls))
	for pc := range res.Counters.PCStalls {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		integ := res.Counters.PCStalls[pc]
		in := k.InstAt(pc)
		line, file := 0, k.SourceFile
		if in != nil {
			line = in.Line
			if in.File != "" {
				file = in.File
			}
		}
		for s := sim.Stall(0); s < sim.NumStalls; s++ {
			if integ[s] == 0 {
				continue
			}
			n := integ[s] / period
			r.Samples = append(r.Samples, Sample{
				PC: pc, Line: line, File: file, Stall: s, Samples: n,
			})
			r.TotalSamples += n
			pcAgg := r.byPC[pc]
			if pcAgg == nil {
				pcAgg = new([sim.NumStalls]float64)
				r.byPC[pc] = pcAgg
			}
			pcAgg[s] += n
			lnAgg := r.byLine[line]
			if lnAgg == nil {
				lnAgg = new([sim.NumStalls]float64)
				r.byLine[line] = lnAgg
			}
			lnAgg[s] += n
		}
	}
	sort.Slice(r.Samples, func(i, j int) bool {
		if r.Samples[i].PC != r.Samples[j].PC {
			return r.Samples[i].PC < r.Samples[j].PC
		}
		return r.Samples[i].Stall < r.Samples[j].Stall
	})
	return r, nil
}

// AtPC returns the per-reason sample counts for one PC.
func (r *Report) AtPC(pc uint64) [sim.NumStalls]float64 {
	if a := r.byPC[pc]; a != nil {
		return *a
	}
	return [sim.NumStalls]float64{}
}

// AtLine returns the per-reason sample counts aggregated over all
// instructions attributed to a source line.
func (r *Report) AtLine(line int) [sim.NumStalls]float64 {
	if a := r.byLine[line]; a != nil {
		return *a
	}
	return [sim.NumStalls]float64{}
}

// TopStallsAtPC returns the stall reasons at pc ordered by sample count,
// excluding selected/not_selected bookkeeping reasons, limited to max.
func (r *Report) TopStallsAtPC(pc uint64, max int) []Sample {
	a := r.AtPC(pc)
	var out []Sample
	for s := sim.Stall(0); s < sim.NumStalls; s++ {
		if s == sim.StallSelected || s == sim.StallNotSelected {
			continue
		}
		if a[s] > 0 {
			out = append(out, Sample{PC: pc, Stall: s, Samples: a[s]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Samples > out[j].Samples })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

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
