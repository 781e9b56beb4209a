package experiments

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// Ablations probe the design choices DESIGN.md calls out: the MSHR model
// that produces the §5.2 texture win, the SM-sampling approximation, and
// the growth of the §5.3 tiling speedup with problem size.

// AblateMSHRs sweeps the LSU miss-status-holding-register count and
// reports the Jacobi texture-vs-naive speedup at each point: the knob
// that controls the §5.2 result. With unlimited LSU MSHRs the texture
// path's extra memory-level parallelism — and hence its advantage —
// disappears.
func AblateMSHRs(size int, mshrs []int, cfg sim.Config) (*Table, error) {
	if size <= 0 {
		size = 512
	}
	if mshrs == nil {
		mshrs = []int{32, 64, 112, 256, 4096}
	}
	t := &Table{ID: "ablation", Title: fmt.Sprintf("LSU MSHR count vs. Jacobi texture speedup (%dx%d)", size, size)}
	for _, m := range mshrs {
		arch := gpu.V100()
		arch.LSUMSHRs = m
		_, rn, err := runOn(arch, "jacobi_naive", size, cfg)
		if err != nil {
			return nil, err
		}
		_, rt, err := runOn(arch, "jacobi_texture", size, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Name:     fmt.Sprintf("LSUMSHRs=%d", m),
			Paper:    "1.64x at the V100 default",
			Measured: fmt.Sprintf("%.2fx (naive %.0f cy, texture %.0f cy)", rn.Cycles/rt.Cycles, rn.Cycles, rt.Cycles),
			Match:    "ablation",
		})
	}
	return t, nil
}

// AblateSampling measures how the SM-sampling approximation affects the
// reported kernel duration: with a homogeneous workload, simulating 1, 2,
// 4 or 8 SMs must agree closely (the justification for SampleSMs).
func AblateSampling(name string, scale int, samples []int) (*Table, error) {
	if samples == nil {
		samples = []int{1, 2, 4, 8}
	}
	t := &Table{ID: "ablation", Title: fmt.Sprintf("SM-sampling fidelity on %s", name)}
	var base float64
	for _, s := range samples {
		_, res, err := runOn(gpu.V100(), name, scale, sim.Config{SampleSMs: s})
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Cycles
		}
		t.Rows = append(t.Rows, Row{
			Name:     fmt.Sprintf("SampleSMs=%d (%d blocks simulated)", s, res.SimulatedBlocks),
			Paper:    "n/a (simulator methodology)",
			Measured: fmt.Sprintf("%.0f cycles (%+.1f%% vs SampleSMs=%d)", res.Cycles, 100*(res.Cycles/base-1), samples[0]),
			Match:    "ablation",
		})
	}
	return t, nil
}

// SGEMMScaleSweep shows the §5.3 shared-tiling speedup growing with the
// matrix size — the trend connecting our 256-point measurement to the
// paper's 54x at 10240.
func SGEMMScaleSweep(sizes []int, cfg sim.Config) (*Table, error) {
	if sizes == nil {
		sizes = []int{64, 128, 256, 512}
	}
	t := &Table{ID: "ablation", Title: "SGEMM shared-memory speedup vs matrix size (paper: 54x at 10240)"}
	for _, n := range sizes {
		_, rn, err := runOn(gpu.V100(), "sgemm_naive", n, cfg)
		if err != nil {
			return nil, err
		}
		_, rs, err := runOn(gpu.V100(), "sgemm_shared", n, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Name:     fmt.Sprintf("N=%d", n),
			Paper:    "54x at N=10240",
			Measured: fmt.Sprintf("%.1fx", rn.Cycles/rs.Cycles),
			Match:    "trend",
		})
	}
	return t, nil
}

// AblateLGQueue sweeps the LG issue-queue depth and reports the
// spill-pressure kernel's lg_throttle share: the §4.2 coupling between
// register spills and LG backpressure.
func AblateLGQueue(depths []int, cfg sim.Config) (*Table, error) {
	if depths == nil {
		depths = []int{2, 4, 12, 48}
	}
	t := &Table{ID: "ablation", Title: "LG queue depth vs lg_throttle on the spill-pressure kernel"}
	for _, d := range depths {
		arch := gpu.V100()
		arch.LGQueueDepth = d
		_, res, err := runOn(arch, "spill_pressure", 16, cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Name:     fmt.Sprintf("LGQueueDepth=%d", d),
			Paper:    "n/a (§4.2 mechanism)",
			Measured: fmt.Sprintf("lg_throttle %.1f%%, %.0f cycles", 100*res.StallShare(sim.StallLGThrottle), res.Cycles),
			Match:    "ablation",
		})
	}
	return t, nil
}
