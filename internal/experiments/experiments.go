// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the Fig. 2 and Fig. 5 tool outputs, the §5.1–§5.3
// case-study results, the Fig. 6 overhead analysis and the Fig. 7 metric
// comparison. Each experiment reports paper-vs-measured rows; absolute
// numbers come from the simulator, so the *shape* (who wins, direction of
// each stall/metric shift, rough factors) is the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"gpuscout/internal/advisor"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// Row is one paper-vs-measured comparison.
type Row struct {
	Name     string
	Paper    string
	Measured string
	Match    string // "shape", "value", "direction", "n/a"
}

// Table is one regenerated experiment.
type Table struct {
	ID    string // e.g. "§5.1", "Fig.6"
	Title string
	Rows  []Row
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	w1, w2, w3 := len("result"), len("paper (V100)"), len("measured (simulator)")
	for _, r := range t.Rows {
		w1, w2, w3 = max(w1, len(r.Name)), max(w2, len(r.Paper)), max(w3, len(r.Measured))
	}
	fmt.Fprintf(&b, "  %-*s | %-*s | %-*s | match\n", w1, "result", w2, "paper (V100)", w3, "measured (simulator)")
	fmt.Fprintf(&b, "  %s-+-%s-+-%s-+------\n", strings.Repeat("-", w1), strings.Repeat("-", w2), strings.Repeat("-", w3))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s | %-*s | %-*s | %s\n", w1, r.Name, w2, r.Paper, w3, r.Measured, r.Match)
	}
	return b.String()
}

// runOn lowers a workload for the V100 and executes it on a fresh device
// of arch, which the ablations vary: every table's one execution path.
func runOn(arch gpu.Arch, name string, scale int, cfg sim.Config) (*workloads.Workload, *sim.Result, error) {
	w, err := workloads.Build(name, scale)
	if err != nil {
		return nil, nil, err
	}
	res, err := workloads.Execute(w, sim.NewDevice(arch), cfg)
	return w, res, err
}

// analyzeOne runs the full GPUscout pipeline on a workload, on a V100.
func analyzeOne(name string, scale int, cfg sim.Config) (*scout.Report, error) {
	return advisor.Run(context.Background(), advisor.Plan{
		Arch: gpu.V100(), Workload: name, Scale: scale, Opts: scout.Options{Sim: cfg},
	})
}

// Fig2Report regenerates the Fig. 2 sample output: the register-spilling
// report with warp stalls and metric analysis.
func Fig2Report() (string, error) {
	rep, err := analyzeOne("spill_pressure", 0, sim.Config{SampleSMs: 1})
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

// Fig5Report regenerates the Fig. 5 tool output for the naive Mixbench
// implementation (vectorized-load and shared-memory recommendations).
func Fig5Report() (string, error) {
	rep, err := analyzeOne("mixbench_sp_naive", 24, sim.Config{SampleSMs: 1})
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

// Mixbench51 regenerates the §5.1 results: vectorization speedups per
// datatype, the long-scoreboard reduction, and the occupancy drop.
// iters <= 0 selects the paper's 96 compute iterations.
func Mixbench51(iters int, cfg sim.Config) (*Table, error) {
	t := &Table{ID: "§5.1", Title: "Mixbench: vectorized loads (naive -> float4/double4/int4)"}
	type pair struct {
		naive, vec string
		paper      string
		label      string
	}
	var spN, spV *sim.Result
	for _, p := range []pair{
		{"mixbench_sp_naive", "mixbench_sp_vec4", "3.77x", "single-precision speedup"},
		{"mixbench_dp_naive", "mixbench_dp_vec4", "3.86x", "double-precision speedup"},
		{"mixbench_int_naive", "mixbench_int_vec4", "4.44x", "integer speedup"},
	} {
		_, rn, err := runOn(gpu.V100(), p.naive, iters, cfg)
		if err != nil {
			return nil, err
		}
		_, rv, err := runOn(gpu.V100(), p.vec, iters, cfg)
		if err != nil {
			return nil, err
		}
		if p.naive == "mixbench_sp_naive" {
			spN, spV = rn, rv
		}
		t.Rows = append(t.Rows, Row{
			Name:     p.label,
			Paper:    p.paper,
			Measured: fmt.Sprintf("%.2fx", rn.Cycles/rv.Cycles),
			Match:    "shape",
		})
	}
	t.Rows = append(t.Rows,
		Row{
			Name:     "long_scoreboard share (naive -> vec)",
			Paper:    "70% -> 62%",
			Measured: fmt.Sprintf("%.1f%% -> %.1f%%", 100*spN.StallShare(sim.StallLongScoreboard), 100*spV.StallShare(sim.StallLongScoreboard)),
			Match:    "partial (saturated)",
		},
		Row{
			Name:     "achieved occupancy (naive -> vec)",
			Paper:    "92% -> 83%",
			Measured: fmt.Sprintf("%.0f%% -> %.0f%%", 100*spN.AchievedOccupancy, 100*spV.AchievedOccupancy),
			Match:    "direction",
		},
	)
	return t, nil
}

// Jacobi52 regenerates the §5.2 results: the texture-memory speedup, the
// tex_throttle shift, the texture-cache traffic, the __restrict__ effect
// and the I2F conversion count. size <= 0 selects 1024 (the paper used
// 8192; the simulator runs a scaled grid).
func Jacobi52(size int, cfg sim.Config) (*Table, error) {
	if size <= 0 {
		size = 1024
	}
	t := &Table{ID: "§5.2", Title: fmt.Sprintf("Heat-transfer Jacobi, %dx%d grid (paper: 8192x8192)", size, size)}
	wN, rN, err := runOn(gpu.V100(), "jacobi_naive", size, cfg)
	if err != nil {
		return nil, err
	}
	_, rT, err := runOn(gpu.V100(), "jacobi_texture", size, cfg)
	if err != nil {
		return nil, err
	}
	_, rR, err := runOn(gpu.V100(), "jacobi_restrict", size, cfg)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		Row{
			Name:     "texture-memory throughput gain",
			Paper:    "+61.1% (duration -39.2%)",
			Measured: fmt.Sprintf("+%.1f%% (duration -%.1f%%)", 100*(rN.Cycles/rT.Cycles-1), 100*(1-rT.Cycles/rN.Cycles)),
			Match:    "shape",
		},
		Row{
			Name:     "tex_throttle share (naive -> texture)",
			Paper:    "0% -> 24.65%",
			Measured: fmt.Sprintf("%.2f%% -> %.2f%%", 100*rN.StallShare(sim.StallTexThrottle), 100*rT.StallShare(sim.StallTexThrottle)),
			Match:    "direction",
		},
		Row{
			Name:  "texture cache traffic / miss rate",
			Paper: "221760 B requested, 11.5% miss",
			Measured: fmt.Sprintf("%d B requested, %.1f%% miss",
				32*uint64(float64(rT.Counters.TexSectors)*rT.Scale),
				100*(1-float64(rT.Counters.TexSectorHits)/float64(max(rT.Counters.TexSectors, 1)))),
			Match: "shape",
		},
		Row{
			Name:     "__restrict__ keyword effect",
			Paper:    "+0.3%",
			Measured: fmt.Sprintf("%+.1f%%", 100*(rN.Cycles/rR.Cycles-1)),
			Match:    "value",
		},
		Row{
			Name:     "I2F conversions detected",
			Paper:    "6 (with line numbers)",
			Measured: fmt.Sprintf("%d (static count)", wN.Kernel.CountOpcodes()[sass.OpI2F]),
			Match:    "value",
		},
	)
	return t, nil
}

// SGEMM53 regenerates the §5.3 results: the shared-memory speedup, the
// long-scoreboard/MIO stall shifts, the vectorized tile-load gain and the
// register-count increase. n <= 0 selects 256 (the paper used 10240).
func SGEMM53(n int, cfg sim.Config) (*Table, error) {
	if n <= 0 {
		n = 256
	}
	t := &Table{ID: "§5.3", Title: fmt.Sprintf("SGEMM, %dx%d matrices (paper: 10240x10240)", n, n)}
	wN, rN, err := runOn(gpu.V100(), "sgemm_naive", n, cfg)
	if err != nil {
		return nil, err
	}
	wS, rS, err := runOn(gpu.V100(), "sgemm_shared", n, cfg)
	if err != nil {
		return nil, err
	}
	wV, rV, err := runOn(gpu.V100(), "sgemm_shared_vec", n, cfg)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		Row{
			Name:     "shared-memory tiling speedup",
			Paper:    "54x",
			Measured: fmt.Sprintf("%.1fx", rN.Cycles/rS.Cycles),
			Match:    "shape",
		},
		Row{
			Name:     "long_scoreboard share (naive -> shared)",
			Paper:    "7.8% -> 30.6%",
			Measured: fmt.Sprintf("%.1f%% -> %.1f%%", 100*rN.StallShare(sim.StallLongScoreboard), 100*rS.StallShare(sim.StallLongScoreboard)),
			Match:    "deviation (see EXPERIMENTS.md)",
		},
		Row{
			Name:     "mio_throttle share (naive -> shared)",
			Paper:    "0.03% -> 4.5%",
			Measured: fmt.Sprintf("%.2f%% -> %.2f%%", 100*rN.StallShare(sim.StallMIOThrottle), 100*rS.StallShare(sim.StallMIOThrottle)),
			Match:    "direction",
		},
		Row{
			Name:     "vectorized tile loads (over shared)",
			Paper:    "+8.5%",
			Measured: fmt.Sprintf("%+.1f%%", 100*(rS.Cycles/rV.Cycles-1)),
			Match:    "deviation (see EXPERIMENTS.md)",
		},
		Row{
			Name:     "registers per thread (naive -> vec)",
			Paper:    "25 -> 72",
			Measured: fmt.Sprintf("%d -> %d (shared: %d)", wN.Kernel.NumRegs, wV.Kernel.NumRegs, wS.Kernel.NumRegs),
			Match:    "direction",
		},
	)
	return t, nil
}

// CompareDemo regenerates the Fig. 7 "Metrics Comparison" view for the
// mixbench naive -> vec4 change.
func CompareDemo() (string, error) {
	repOld, err := analyzeOne("mixbench_sp_naive", 24, sim.Config{SampleSMs: 1})
	if err != nil {
		return "", err
	}
	repNew, err := analyzeOne("mixbench_sp_vec4", 24, sim.Config{SampleSMs: 1})
	if err != nil {
		return "", err
	}
	cmp, err := scout.Compare(repOld, repNew)
	if err != nil {
		return "", err
	}
	return cmp.Render(), nil
}
