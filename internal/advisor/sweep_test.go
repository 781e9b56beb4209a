package advisor

import (
	"context"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// analyzeSliced is analyze with backward stall slicing enabled.
func analyzeSliced(t *testing.T, name string, scale int, cfg sim.Config) *scout.Report {
	t.Helper()
	arch := gpu.V100()
	w, err := workloads.BuildArch(name, scale, arch)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	run := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), c)
	}
	rep, err := scout.AnalyzeContext(context.Background(), arch, w.Kernel, run,
		scout.Options{Sim: cfg, StallSlices: true})
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	return rep
}

// TestCaseStudySensitivity pins the tentpole acceptance criterion: each
// paper case study's headline finding must attribute the bottleneck to
// the resource the paper's narrative names. Mixbench's naive kernel is
// bandwidth-starved (§5.1: vectorization feeds the DRAM bus fewer, wider
// requests); Jacobi's stencil re-reads neighbors through the latency-bound
// global path (§5.2: the texture cache hides that latency); SGEMM's inner
// product is a chain of dependent latency-exposed loads (§5.3: shared
// tiles turn them into on-chip accesses).
func TestCaseStudySensitivity(t *testing.T) {
	cases := []struct {
		workload string
		scale    int
		analysis string
		dominant string
	}{
		{"mixbench_sp_naive", 8, "vectorized_load", gpu.ResourceDRAMBandwidth},
		{"jacobi_naive", 512, "texture_memory", gpu.ResourceDRAMLatency},
		{"sgemm_naive", 64, "shared_memory", gpu.ResourceDRAMLatency},
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/"+tc.analysis, func(t *testing.T) {
			cfg := sim.Config{SampleSMs: 1}
			rep := analyze(t, tc.workload, tc.scale, cfg)
			s, err := Sweep(context.Background(), rep, tc.workload, tc.scale, gpu.V100(), cfg)
			if err != nil {
				t.Fatalf("Sweep: %v", err)
			}
			if len(s.Deltas) != 2*len(gpu.ResourceNames()) {
				t.Errorf("sweep ran %d perturbations, want %d", len(s.Deltas), 2*len(gpu.ResourceNames()))
			}
			if s.BaselineCycles != rep.Result.Cycles {
				t.Errorf("baseline %g != measured %g", s.BaselineCycles, rep.Result.Cycles)
			}
			if rep.Sensitivity != s {
				t.Error("sweep not attached to the report")
			}
			f := findingFor(rep, tc.analysis)
			if f == nil {
				t.Fatalf("no %s finding on %s", tc.analysis, tc.workload)
			}
			if f.Sensitivity == nil {
				t.Fatal("finding has no sensitivity block")
			}
			if f.Sensitivity.Dominant != tc.dominant {
				t.Errorf("dominant = %q (relief %.3f), want %q",
					f.Sensitivity.Dominant, f.Sensitivity.DominantRelief, tc.dominant)
			}
			if f.Sensitivity.DominantRelief < scout.NeutralSensitivity {
				t.Errorf("dominant relief %.4f below the neutral band", f.Sensitivity.DominantRelief)
			}
			if f.EstSpeedup <= 1 {
				t.Errorf("EstSpeedup = %.3f, want > 1 after sweep widening", f.EstSpeedup)
			}
		})
	}
}

// TestSweepRanksFindings checks the GPA-style ordering contract: after a
// sweep, findings appear in descending estimated-speedup order.
func TestSweepRanksFindings(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "jacobi_naive", 512, cfg)
	if _, err := Sweep(context.Background(), rep, "jacobi_naive", 512, gpu.V100(), cfg); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(rep.Findings) < 2 {
		t.Fatalf("want several findings, got %d", len(rep.Findings))
	}
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i-1].EstSpeedup < rep.Findings[i].EstSpeedup {
			t.Errorf("findings out of payoff order at %d: %.3f < %.3f (%s after %s)",
				i, rep.Findings[i-1].EstSpeedup, rep.Findings[i].EstSpeedup,
				rep.Findings[i-1].Analysis, rep.Findings[i].Analysis)
		}
		if rep.Findings[i].EstSpeedup <= 0 {
			t.Errorf("finding %s has no payoff estimate", rep.Findings[i].Analysis)
		}
	}
}

// TestSweepSurfacesInReport checks the sweep reaches both renderings.
func TestSweepSurfacesInReport(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "mixbench_sp_naive", 8, cfg)
	if _, err := Sweep(context.Background(), rep, "mixbench_sp_naive", 8, gpu.V100(), cfg); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	text := rep.Render()
	for _, want := range []string{
		"Sensitivity matrix (kernel cycles under perturbed hardware)",
		"Sensitivity (kernel re-simulated under perturbed hardware)",
		"dominant resource: dram_bandwidth",
		"Payoff:  estimated speedup ceiling",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q", want)
		}
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	js := string(data)
	for _, want := range []string{
		`"sensitivity"`, `"dominant": "dram_bandwidth"`, `"baseline_cycles"`,
		`"est_speedup"`, `"deltas"`, `"resource"`,
	} {
		if !strings.Contains(js, want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// TestStallSlicesReachProducer pins the LEO-style slicing criterion: the
// slice attached to a latency finding must walk past the stalled consumer
// back to the memory instruction that produced the awaited value.
func TestStallSlicesReachProducer(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	for _, tc := range []struct {
		workload string
		scale    int
		analysis string
	}{
		{"sgemm_naive", 64, "shared_memory"},
		{"mixbench_sp_naive", 8, "vectorized_load"},
	} {
		rep := analyzeSliced(t, tc.workload, tc.scale, cfg)
		f := findingFor(rep, tc.analysis)
		if f == nil {
			t.Fatalf("no %s finding on %s", tc.analysis, tc.workload)
		}
		if len(f.StallSlices) == 0 {
			t.Fatalf("%s: no stall slices on the %s finding", tc.workload, tc.analysis)
		}
		for _, sl := range f.StallSlices {
			if len(sl.Steps) < 2 {
				t.Errorf("%s: slice at pc %#x has %d steps, want the chain", tc.workload, sl.PC, len(sl.Steps))
			}
			hasRoot, hasLoad := false, false
			for _, st := range sl.Steps {
				if st.Depth == 0 {
					hasRoot = true
				}
				if st.Depth > 0 && strings.Contains(st.SASS, "LDG") {
					hasLoad = true
				}
			}
			if !hasRoot {
				t.Errorf("%s: slice at pc %#x lost its stalled root", tc.workload, sl.PC)
			}
			if !hasLoad {
				t.Errorf("%s: slice at pc %#x never reaches the producing load: %+v",
					tc.workload, sl.PC, sl.Steps)
			}
		}
		if text := rep.Render(); !strings.Contains(text, "Stall slice (producer chain") {
			t.Errorf("%s: rendered report missing the slice section", tc.workload)
		}
	}
}

// TestSweepRejectsDryRun mirrors the verifier's contract.
func TestSweepRejectsDryRun(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, "sgemm_naive", 0, gpu.V100(), sim.Config{}); err == nil {
		t.Error("nil report accepted")
	}
}

// TestSweepHonorsContext: explicit cancellation aborts the pass.
func TestSweepHonorsContext(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "sgemm_naive", 64, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, rep, "sgemm_naive", 64, gpu.V100(), cfg); err == nil {
		t.Error("cancelled context did not abort the sweep")
	}
}

// TestSweepLoweringReuse pins the sweep's build-once shortcut over the
// whole matrix: for every perturbation × workload × arch, the kernel the
// sweep simulates (the shared baseline lowering wherever
// codegen.SameLowering says the perturbed arch cannot change lowering)
// must print the same SASS as a fresh BuildArch for the perturbed arch.
// A descriptor field the backend starts reading without SameLowering
// learning about it fails here as soon as a perturbation moves it. The
// reuse count guards the other direction: only the two scoreboard
// entries may be re-lowered.
func TestSweepLoweringReuse(t *testing.T) {
	perts := gpu.Perturbations()
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range workloads.Names() {
			scale := goldenScale(t, name)
			lowering := sweepLowering{workload: name, scale: scale, arch: arch}
			reused := 0
			for _, p := range perts {
				pa := p.Apply(arch)
				got, err := lowering.lower(pa)
				if err != nil {
					t.Fatalf("%s/%s under %s: %v", arch.SM, name, p.ID(), err)
				}
				fresh, err := workloads.BuildArch(name, scale, pa)
				if err != nil {
					t.Fatalf("%s/%s fresh build under %s: %v", arch.SM, name, p.ID(), err)
				}
				if sass.Print(got.Kernel) != sass.Print(fresh.Kernel) {
					t.Errorf("%s/%s under %s: swept kernel differs from a fresh lowering", arch.SM, name, p.ID())
				}
				if got == lowering.base {
					reused++
				} else if p.Resource != gpu.ResourceScoreboards {
					t.Errorf("%s/%s: %s re-lowered the kernel", arch.SM, name, p.ID())
				}
			}
			if want := len(perts) - 2; reused != want {
				t.Errorf("%s/%s: %d perturbations reused the baseline lowering, want %d", arch.SM, name, reused, want)
			}
		}
	}
}
