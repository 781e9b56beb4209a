package experiments

import (
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// Ablations probe the design choices DESIGN.md calls out: the MSHR model
// that produces the §5.2 texture win, the SM-sampling approximation, and
// the growth of the §5.3 tiling speedup with problem size.

// ablate is the ablations' loop: one table row per point of the sweep.
func ablate(title string, points []int, row func(p int) (Row, error)) (*Table, error) {
	t := &Table{ID: "ablation", Title: title}
	for _, p := range points {
		r, err := row(p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// AblateMSHRs sweeps the LSU miss-status-holding-register count and
// reports the Jacobi texture-vs-naive speedup at each point: the knob
// that controls the §5.2 result. With unlimited LSU MSHRs the texture
// path's extra memory-level parallelism — and hence its advantage —
// disappears.
func AblateMSHRs(size int, mshrs []int, cfg sim.Config) (*Table, error) {
	title := fmt.Sprintf("LSU MSHR count vs. Jacobi texture speedup (%dx%d)", size, size)
	return ablate(title, mshrs, func(m int) (Row, error) {
		arch := gpu.V100()
		arch.LSUMSHRs = m
		_, r, err := runs(arch, size, cfg, "jacobi_naive", "jacobi_texture")
		if err != nil {
			return Row{}, err
		}
		return Row{
			Name:     fmt.Sprintf("LSUMSHRs=%d", m),
			Paper:    "1.64x at the V100 default",
			Measured: fmt.Sprintf("%.2fx (naive %.0f cy, texture %.0f cy)", r[0].Cycles/r[1].Cycles, r[0].Cycles, r[1].Cycles),
			Match:    "ablation",
		}, nil
	})
}

// AblateSampling measures how the SM-sampling approximation affects the
// reported kernel duration: with a homogeneous workload, simulating 1, 2,
// 4 or 8 SMs must agree closely (the justification for SampleSMs).
func AblateSampling(name string, scale int, samples []int) (*Table, error) {
	var base float64
	return ablate(fmt.Sprintf("SM-sampling fidelity on %s", name), samples, func(s int) (Row, error) {
		_, r, err := runs(gpu.V100(), scale, sim.Config{SampleSMs: s}, name)
		if err != nil {
			return Row{}, err
		}
		res := r[0]
		if base == 0 {
			base = res.Cycles
		}
		return Row{
			Name:     fmt.Sprintf("SampleSMs=%d (%d blocks simulated)", s, res.SimulatedBlocks),
			Paper:    "n/a (simulator methodology)",
			Measured: fmt.Sprintf("%.0f cycles (%+.1f%% vs SampleSMs=%d)", res.Cycles, 100*(res.Cycles/base-1), samples[0]),
			Match:    "ablation",
		}, nil
	})
}

// SGEMMScaleSweep shows the §5.3 shared-tiling speedup growing with the
// matrix size — the trend connecting our 256-point measurement to the
// paper's 54x at 10240.
func SGEMMScaleSweep(sizes []int, cfg sim.Config) (*Table, error) {
	return ablate("SGEMM shared-memory speedup vs matrix size (paper: 54x at 10240)", sizes, func(n int) (Row, error) {
		_, r, err := runs(gpu.V100(), n, cfg, "sgemm_naive", "sgemm_shared")
		if err != nil {
			return Row{}, err
		}
		return Row{
			Name:     fmt.Sprintf("N=%d", n),
			Paper:    "54x at N=10240",
			Measured: fmt.Sprintf("%.1fx", r[0].Cycles/r[1].Cycles),
			Match:    "trend",
		}, nil
	})
}

// AblateLGQueue sweeps the LG issue-queue depth and reports the
// spill-pressure kernel's lg_throttle share: the §4.2 coupling between
// register spills and LG backpressure.
func AblateLGQueue(depths []int, cfg sim.Config) (*Table, error) {
	return ablate("LG queue depth vs lg_throttle on the spill-pressure kernel", depths, func(d int) (Row, error) {
		arch := gpu.V100()
		arch.LGQueueDepth = d
		_, r, err := runs(arch, 16, cfg, "spill_pressure")
		if err != nil {
			return Row{}, err
		}
		return Row{
			Name:     fmt.Sprintf("LGQueueDepth=%d", d),
			Paper:    "n/a (§4.2 mechanism)",
			Measured: fmt.Sprintf("lg_throttle %.1f%%, %.0f cycles", 100*r[0].StallShare(sim.StallLGThrottle), r[0].Cycles),
			Match:    "ablation",
		}, nil
	})
}
