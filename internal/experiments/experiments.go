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

// An Experiment is one entry of `gpuscout experiments`: its name and the
// problem scales of a full and of a -fast run.
type Experiment struct {
	Name       string
	full, fast []int
	run        func(scales []int) (string, error)
}

// Run runs the experiment at its full or -fast scales and renders it.
func (e Experiment) Run(fast bool) (string, error) {
	if fast {
		return e.run(e.fast)
	}
	return e.run(e.full)
}

// oneSM is the simulator configuration the experiments run with.
var oneSM = sim.Config{SampleSMs: 1}

// List is every experiment, in the order `gpuscout experiments -run all`
// runs them.
var List = []Experiment{
	{"fig2", nil, nil, func([]int) (string, error) { return Fig2Report() }},
	{"fig5", nil, nil, func([]int) (string, error) { return Fig5Report() }},
	{"mixbench", []int{96}, []int{24}, func(s []int) (string, error) { return render(Mixbench51(s[0], oneSM)) }},
	{"jacobi", []int{1024}, []int{512}, func(s []int) (string, error) { return render(Jacobi52(s[0], oneSM)) }},
	{"sgemm", []int{256}, []int{128}, func(s []int) (string, error) { return render(SGEMM53(s[0], oneSM)) }},
	{"fig6", []int{64, 128, 256, 512}, []int{64, 128, 256}, func(s []int) (string, error) { return render(Fig6Overhead(s, oneSM)) }},
	{"compare", nil, nil, func([]int) (string, error) { return CompareDemo() }},
	{"ablations", nil, nil, func([]int) (string, error) {
		var out []string
		for _, f := range []func() (*Table, error){
			func() (*Table, error) { return AblateMSHRs(512, []int{32, 64, 112, 256, 4096}, oneSM) },
			func() (*Table, error) { return AblateSampling("jacobi_naive", 512, []int{1, 2, 4, 8}) },
			func() (*Table, error) { return SGEMMScaleSweep([]int{64, 128, 256, 512}, oneSM) },
			func() (*Table, error) { return AblateLGQueue([]int{2, 4, 12, 48}, oneSM) },
		} {
			text, err := render(f())
			if err != nil {
				return "", err
			}
			out = append(out, text)
		}
		return strings.Join(out, "\n"), nil
	}},
}

func render(v interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return v.Render(), nil
}

// runs lowers each named workload at scale for the V100 and executes it
// on a fresh device of arch, which the ablations vary: every table's one
// execution path.
func runs(arch gpu.Arch, scale int, cfg sim.Config, names ...string) ([]*workloads.Workload, []*sim.Result, error) {
	ws := make([]*workloads.Workload, len(names))
	rs := make([]*sim.Result, len(names))
	for i, name := range names {
		var err error
		if ws[i], err = workloads.Build(name, scale); err != nil {
			return nil, nil, err
		}
		if rs[i], err = workloads.Execute(ws[i], sim.NewDevice(arch), cfg); err != nil {
			return nil, nil, err
		}
	}
	return ws, rs, nil
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
	rep, err := analyzeOne("spill_pressure", 0, oneSM)
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

// Fig5Report regenerates the Fig. 5 tool output for the naive Mixbench
// implementation (vectorized-load and shared-memory recommendations).
func Fig5Report() (string, error) {
	rep, err := analyzeOne("mixbench_sp_naive", 24, oneSM)
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

// Mixbench51 regenerates the §5.1 results: vectorization speedups per
// datatype, the long-scoreboard reduction, and the occupancy drop.
// iters is the compute-iteration count (the paper's is 96).
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
		_, r, err := runs(gpu.V100(), iters, cfg, p.naive, p.vec)
		if err != nil {
			return nil, err
		}
		rn, rv := r[0], r[1]
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
// and the I2F conversion count on a size x size grid (the paper used
// 8192; the simulator runs a scaled grid).
func Jacobi52(size int, cfg sim.Config) (*Table, error) {
	t := &Table{ID: "§5.2", Title: fmt.Sprintf("Heat-transfer Jacobi, %dx%d grid (paper: 8192x8192)", size, size)}
	w, r, err := runs(gpu.V100(), size, cfg, "jacobi_naive", "jacobi_texture", "jacobi_restrict")
	if err != nil {
		return nil, err
	}
	wN, rN, rT, rR := w[0], r[0], r[1], r[2]
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
// register-count increase on n x n matrices (the paper used 10240).
func SGEMM53(n int, cfg sim.Config) (*Table, error) {
	t := &Table{ID: "§5.3", Title: fmt.Sprintf("SGEMM, %dx%d matrices (paper: 10240x10240)", n, n)}
	w, r, err := runs(gpu.V100(), n, cfg, "sgemm_naive", "sgemm_shared", "sgemm_shared_vec")
	if err != nil {
		return nil, err
	}
	wN, wS, wV, rN, rS, rV := w[0], w[1], w[2], r[0], r[1], r[2]
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
	repOld, err := analyzeOne("mixbench_sp_naive", 24, oneSM)
	if err != nil {
		return "", err
	}
	repNew, err := analyzeOne("mixbench_sp_vec4", 24, oneSM)
	if err != nil {
		return "", err
	}
	cmp, err := scout.Compare(repOld, repNew)
	if err != nil {
		return "", err
	}
	return cmp.Render(), nil
}
