package advisor

import (
	"context"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// analyze runs the full three-pillar pipeline on a workload, the way the
// facade's AnalyzeWorkload does, on the default Volta target.
func analyze(t *testing.T, name string, scale int, cfg sim.Config) *scout.Report {
	return analyzeArch(t, name, scale, cfg, gpu.V100())
}

// analyzeArch is analyze for an explicit target architecture: the
// workload is lowered by that arch's codegen backend and simulated on
// that arch's machine model.
func analyzeArch(t *testing.T, name string, scale int, cfg sim.Config, arch gpu.Arch) *scout.Report {
	t.Helper()
	w, err := workloads.BuildArch(name, scale, arch)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	run := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), c)
	}
	rep, err := scout.AnalyzeContext(context.Background(), arch, w.Kernel, run, scout.Options{Sim: cfg})
	if err != nil {
		t.Fatalf("analyze %s: %v", name, err)
	}
	return rep
}

func findingFor(rep *scout.Report, analysis string) *scout.Finding {
	for i := range rep.Findings {
		if rep.Findings[i].Analysis == analysis {
			return &rep.Findings[i]
		}
	}
	return nil
}

// TestCaseStudiesConfirmed is the end-to-end find -> fix -> re-simulate
// loop over the paper's three §5 case studies: each detector finding must
// verify as confirmed with a measured speedup > 1.0x.
func TestCaseStudiesConfirmed(t *testing.T) {
	cases := []struct {
		workload string
		analysis string
		fixed    string
		scale    int
	}{
		// §5.1: Mixbench, vectorized float4 loads.
		{"mixbench_sp_naive", "vectorized_load", "mixbench_sp_vec4", 8},
		// §5.2: Jacobi, shared-memory stencil tiling (amortizes at scale).
		{"jacobi_naive", "shared_memory", "jacobi_shared", 512},
		// §5.3: SGEMM, const __restrict__ inputs.
		{"sgemm_naive", "readonly_cache", "sgemm_restrict", 64},
	}
	for _, tc := range cases {
		t.Run(tc.workload+"/"+tc.analysis, func(t *testing.T) {
			cfg := sim.Config{SampleSMs: 1}
			rep := analyze(t, tc.workload, tc.scale, cfg)
			n, err := Verify(context.Background(), rep, tc.workload, tc.scale, gpu.V100(), cfg)
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if n == 0 {
				t.Fatal("no findings had paired variants")
			}
			f := findingFor(rep, tc.analysis)
			if f == nil {
				t.Fatalf("no %s finding on %s", tc.analysis, tc.workload)
			}
			v := f.Verification
			if v == nil {
				t.Fatalf("%s finding has no Verification block", tc.analysis)
			}
			if v.Fixed != tc.fixed {
				t.Errorf("Fixed = %s, want %s", v.Fixed, tc.fixed)
			}
			if v.Verdict != scout.VerdictConfirmed {
				t.Errorf("verdict = %s (speedup %.3fx), want confirmed", v.Verdict, v.Speedup)
			}
			if v.Speedup <= 1.0 {
				t.Errorf("speedup = %.3fx, want > 1.0", v.Speedup)
			}
			if v.BaselineCycles <= 0 || v.FixedCycles <= 0 {
				t.Errorf("cycles not recorded: %g -> %g", v.BaselineCycles, v.FixedCycles)
			}
		})
	}
}

// TestRefutedAtSmallScale shows the advisor catching bad advice: at a
// small problem size the shared-memory tiling's staging overhead is not
// amortized, and the measured verdict flips to refuted.
func TestRefutedAtSmallScale(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "jacobi_naive", 128, cfg)
	if _, err := Verify(context.Background(), rep, "jacobi_naive", 128, gpu.V100(), cfg); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	f := findingFor(rep, "shared_memory")
	if f == nil || f.Verification == nil {
		t.Fatal("no verified shared_memory finding")
	}
	if v := f.Verification; v.Verdict != scout.VerdictRefuted {
		t.Errorf("verdict = %s (speedup %.3fx), want refuted at scale 128", v.Verdict, v.Speedup)
	}
}

// TestVerificationSurfacesInReport checks the verified evidence reaches
// both renderings: the text report and the JSON form.
func TestVerificationSurfacesInReport(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "sgemm_naive", 64, cfg)
	n, err := Verify(context.Background(), rep, "sgemm_naive", 64, gpu.V100(), cfg)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	blocks := 0
	for i := range rep.Findings {
		if rep.Findings[i].Verification != nil {
			blocks++
		}
	}
	if n == 0 || n != blocks {
		t.Errorf("Verify counts %d verified findings, the report holds %d blocks", n, blocks)
	}

	text := rep.Render()
	for _, want := range []string{
		"Verification (recommendation re-executed)",
		"confirmed: sgemm_naive -> ",
		"applied change:",
		"stall long_scoreboard",
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
		`"verification"`, `"verdict": "confirmed"`, `"speedup"`,
		`"baseline_cycles"`, `"stall_deltas"`,
	} {
		if !strings.Contains(js, want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// TestPairsTable sanity-checks the recommendation table: ordering,
// lookups, and that every named workload actually exists in the registry.
func TestPairsTable(t *testing.T) {
	ps := Pairs()
	if len(ps) == 0 {
		t.Fatal("empty pairs table")
	}
	registered := map[string]bool{}
	for _, n := range workloads.Names() {
		registered[n] = true
	}
	for i, p := range ps {
		if !registered[p.Workload] {
			t.Errorf("pair %d: baseline %q is not a registered workload", i, p.Workload)
		}
		if !registered[p.Fixed] {
			t.Errorf("pair %d: variant %q is not a registered workload", i, p.Fixed)
		}
		if p.Change == "" {
			t.Errorf("pair %d (%s/%s): empty change description", i, p.Workload, p.Analysis)
		}
		if i > 0 {
			prev := ps[i-1]
			if p.Workload < prev.Workload ||
				(p.Workload == prev.Workload && p.Analysis <= prev.Analysis) {
				t.Errorf("pairs not strictly ordered at %d: %s/%s after %s/%s",
					i, p.Workload, p.Analysis, prev.Workload, prev.Analysis)
			}
		}
	}

	if p, ok := PairFor("sgemm_naive", "shared_memory"); !ok || p.Fixed != "sgemm_shared" {
		t.Errorf("PairFor(sgemm_naive, shared_memory) = %+v, %t", p, ok)
	}
	if _, ok := PairFor("sgemm_naive", "no_such_analysis"); ok {
		t.Error("PairFor invented a pair for an unknown analysis")
	}

	// Pairs returns a copy: mutating it must not corrupt the table.
	ps[0].Fixed = "clobbered"
	if again := Pairs(); again[0].Fixed == "clobbered" {
		t.Error("Pairs exposes the internal table")
	}
}

func TestVerifyRejectsDryRun(t *testing.T) {
	if _, err := Verify(context.Background(), nil, "sgemm_naive", 0, gpu.V100(), sim.Config{}); err == nil {
		t.Error("nil report accepted")
	}
	w, err := workloads.Build("sgemm_naive", 64)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scout.AnalyzeContext(context.Background(), gpu.V100(), w.Kernel, nil, scout.Options{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(context.Background(), rep, "sgemm_naive", 64, gpu.V100(), sim.Config{}); err == nil {
		t.Error("dry-run report accepted")
	}
}

func TestVerifyHonorsContext(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "sgemm_naive", 64, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Verify(ctx, rep, "sgemm_naive", 64, gpu.V100(), cfg); err == nil {
		t.Error("cancelled context did not abort verification")
	}
}

func TestVerifyNoPairedFindings(t *testing.T) {
	// transpose_naive has no entry in the pairs table, so verification is
	// a no-op that verifies nothing, not an error.
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "transpose_naive", 0, cfg)
	n, err := Verify(context.Background(), rep, "transpose_naive", 0, gpu.V100(), cfg)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n != 0 {
		t.Errorf("verified %d findings, want 0 (no pairs for transpose_naive)", n)
	}
	for i := range rep.Findings {
		if rep.Findings[i].Verification != nil {
			t.Errorf("finding %s unexpectedly verified", rep.Findings[i].Analysis)
		}
	}
}

func TestGrade(t *testing.T) {
	for _, tc := range []struct {
		speedup float64
		want    scout.Verdict
	}{
		{1.50, scout.VerdictConfirmed},
		{1.02, scout.VerdictConfirmed},
		{1.01, scout.VerdictNeutral},
		{1.00, scout.VerdictNeutral},
		{0.99, scout.VerdictNeutral},
		{0.98, scout.VerdictRefuted},
		{0.50, scout.VerdictRefuted},
	} {
		if got := scout.Grade(tc.speedup); got != tc.want {
			t.Errorf("Grade(%g) = %s, want %s", tc.speedup, got, tc.want)
		}
	}
}
