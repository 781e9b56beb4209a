package scout

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// analyzeWorkload runs the full GPUscout pipeline on a workload.
func analyzeWorkload(t *testing.T, name string, scale int, opts Options) *Report {
	t.Helper()
	w, err := workloads.Build(name, scale)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		dev := sim.NewDevice(gpu.V100())
		return workloads.ExecuteContext(ctx, w, dev, cfg)
	}
	rep, err := AnalyzeContext(context.Background(), gpu.V100(), w.Kernel, run, opts)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", name, err)
	}
	return rep
}

func findingsByAnalysis(rep *Report) map[string][]*Finding {
	m := map[string][]*Finding{}
	for i := range rep.Findings {
		f := &rep.Findings[i]
		m[f.Analysis] = append(m[f.Analysis], f)
	}
	return m
}

func TestMixbenchFindings(t *testing.T) {
	// §5.1 / Fig. 5: GPUscout recommends (1) shared memory and
	// (2) vectorized global loads for the naive mixbench kernel.
	rep := analyzeWorkload(t, "mixbench_sp_naive", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	m := findingsByAnalysis(rep)
	vl := m["vectorized_load"]
	if len(vl) == 0 {
		t.Fatal("no vectorized_load finding on naive mixbench")
	}
	// The loads sit at line 7 of the embedded source, inside the loop.
	if vl[0].PrimaryLine() != 7 {
		t.Errorf("vectorized_load points at line %d, want 7", vl[0].PrimaryLine())
	}
	if !vl[0].InLoop {
		t.Error("vectorized_load finding not marked in-loop")
	}
	if len(m["shared_memory"]) == 0 {
		t.Error("no shared_memory finding on naive mixbench (Fig. 5 expects one)")
	}
	// The severity must be grounded in stalls: naive mixbench is
	// dominated by long_scoreboard + lg_throttle at the load line.
	if vl[0].Severity < SeverityWarning {
		t.Errorf("vectorized_load severity = %v, want >= WARNING", vl[0].Severity)
	}
	if len(vl[0].StallSummary) == 0 || len(vl[0].MetricSummary) == 0 {
		t.Error("finding lacks stall or metric correlation")
	}
}

func TestMixbenchVecCured(t *testing.T) {
	rep := analyzeWorkload(t, "mixbench_sp_vec4", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	m := findingsByAnalysis(rep)
	if len(m["vectorized_load"]) != 0 {
		t.Error("vectorized_load still fires after applying the fix")
	}
}

func TestJacobiFindings(t *testing.T) {
	// §5.2: naive Jacobi gets (1) texture/shared memory, (2) vectorized
	// loads, (3) __restrict__, and (4) datatype conversion findings.
	rep := analyzeWorkload(t, "jacobi_naive", 128, Options{Sim: sim.Config{SampleSMs: 2}})
	m := findingsByAnalysis(rep)
	for _, want := range []string{"texture_memory", "vectorized_load", "readonly_cache", "datatype_conversion"} {
		if len(m[want]) == 0 {
			t.Errorf("missing %s finding on naive jacobi (§5.2 reports it)", want)
		}
	}
	// §5.2: six I2F conversions, each with a line number.
	if dc := m["datatype_conversion"]; len(dc) > 0 {
		if len(dc[0].Sites) != 6 {
			t.Errorf("conversion sites = %d, want 6", len(dc[0].Sites))
		}
		for _, s := range dc[0].Sites {
			if s.Line == 0 {
				t.Error("conversion site without line number")
			}
		}
	}
	// Texture fix applied: the finding disappears, tex traffic appears.
	repT := analyzeWorkload(t, "jacobi_texture", 128, Options{Sim: sim.Config{SampleSMs: 2}})
	mT := findingsByAnalysis(repT)
	if len(mT["texture_memory"]) != 0 {
		t.Error("texture_memory still fires on the texture variant")
	}
	if len(mT["vectorized_load"]) != 0 {
		t.Error("vectorized_load fires on the texture variant (no LDG left)")
	}
}

func TestSGEMMFindings(t *testing.T) {
	// §5.3: naive SGEMM gets __restrict__/const and shared-memory
	// recommendations, with exact source lines.
	rep := analyzeWorkload(t, "sgemm_naive", 64, Options{Sim: sim.Config{SampleSMs: 1}})
	m := findingsByAnalysis(rep)
	if len(m["readonly_cache"]) == 0 {
		t.Error("missing readonly_cache finding on naive sgemm")
	}
	sm := m["shared_memory"]
	if len(sm) == 0 {
		t.Fatal("missing shared_memory finding on naive sgemm")
	}
	if !sm[0].InLoop {
		t.Error("sgemm shared_memory finding not marked in-loop")
	}
	if sm[0].PrimaryLine() != 7 {
		t.Errorf("shared_memory points at line %d, want 7 (the dot-product line)", sm[0].PrimaryLine())
	}
	// The caution list must tell the user to watch bank conflicts and MIO
	// stalls after the change (§5.3).
	foundMIO := false
	for _, c := range sm[0].CautionMetrics {
		if strings.Contains(c, "mio_throttle") {
			foundMIO = true
		}
	}
	if !foundMIO {
		t.Error("shared_memory caution metrics lack mio_throttle")
	}
}

func TestSpillFindings(t *testing.T) {
	// Fig. 2: the register-spill report names the spilled register, the
	// source line, and the operation that caused the spill.
	rep := analyzeWorkload(t, "spill_pressure", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	m := findingsByAnalysis(rep)
	rs := m["register_spilling"]
	if len(rs) == 0 {
		t.Fatal("no register_spilling finding")
	}
	f := rs[0]
	if !f.InLoop {
		t.Error("in-loop spills not marked")
	}
	sawCause, sawPressure := false, false
	for _, s := range f.Sites {
		if strings.Contains(s.Note, "previous write by") {
			sawCause = true
		}
		if strings.Contains(s.Note, "pressure") {
			sawPressure = true
		}
		if s.Line == 0 {
			t.Error("spill site without source line")
		}
	}
	if !sawCause {
		t.Error("no spill-cause attribution (Fig. 2 shows the causing op)")
	}
	if !sawPressure {
		t.Error("no live-register-pressure note")
	}
	// Metric summary must include the §2.3 L2-queries estimate.
	joined := strings.Join(f.MetricSummary, "\n")
	if !strings.Contains(joined, "queries to L2") {
		t.Errorf("metric summary lacks the L2-queries estimate:\n%s", joined)
	}
	if f.Severity < SeverityWarning {
		t.Errorf("spill severity = %v, want >= WARNING", f.Severity)
	}
}

func TestAtomicsFindings(t *testing.T) {
	rep := analyzeWorkload(t, "histogram_global", 4, Options{Sim: sim.Config{SampleSMs: 1}})
	m := findingsByAnalysis(rep)
	sa := m["shared_atomics"]
	if len(sa) == 0 {
		t.Fatal("no shared_atomics finding on global-atomics histogram")
	}
	if !sa[0].InLoop {
		t.Error("in-loop global atomic not marked (the §4.4 amplification)")
	}
	// The shared variant still has the per-block merge atomics but no
	// in-loop ones.
	repS := analyzeWorkload(t, "histogram_shared", 4, Options{Sim: sim.Config{SampleSMs: 1}})
	mS := findingsByAnalysis(repS)
	if len(mS["shared_atomics"]) > 0 && mS["shared_atomics"][0].InLoop {
		t.Error("shared variant's merge atomic flagged as in-loop")
	}
}

// TestSharedAtomicsCountsMatchOpcodes: the two counts the §4.4 finding
// quotes are the kernel's ATOM+RED and ATOMS instructions, for every
// workload on both backends — counted here on the printed SASS, not on
// the decoded opcodes the detector walks. A kernel without global
// atomics has no finding, whatever it does in shared memory.
func TestSharedAtomicsCountsMatchOpcodes(t *testing.T) {
	mnemonic := regexp.MustCompile(`(?m)^\s*/\*[0-9a-f]+\*/\s+(?:@\S+\s+)?(ATOMS|ATOM|RED)\b`)
	fired := 0
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range workloads.Names() {
			w, err := workloads.BuildArch(name, 0, arch)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.SM, name, err)
			}
			global, shared := 0, 0
			for _, m := range mnemonic.FindAllStringSubmatch(sass.Print(w.Kernel), -1) {
				if m[1] == "ATOMS" {
					shared++
				} else {
					global++
				}
			}
			rep, err := AnalyzeContext(context.Background(), arch, w.Kernel, nil, Options{DryRun: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.SM, name, err)
			}
			found := findingsByAnalysis(rep)["shared_atomics"]
			if global == 0 {
				if len(found) != 0 {
					t.Errorf("%s/%s: a finding without a global atomic", arch.SM, name)
				}
				continue
			}
			want := fmt.Sprintf("PTX analysis finds %d global atomic(s) (atom.global/red.global) vs %d shared atomic(s);", global, shared)
			if len(found) != 1 || !strings.HasPrefix(found[0].Problem, want) || len(found[0].Sites) != global {
				t.Errorf("%s/%s: findings %+v, want one with %d sites starting %q", arch.SM, name, found, global, want)
			}
			fired++
		}
	}
	if fired < 6 {
		t.Errorf("only %d builds carry global atomics; the test lost its subjects", fired)
	}
}

func TestDryRun(t *testing.T) {
	// §3.1: --dry-run inspects only the SASS, without the GPU, and works
	// on architectures ncu does not support (Pascal).
	w, err := workloads.Build("mixbench_sp_naive", 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeContext(context.Background(), gpu.P100(), w.Kernel, nil, Options{DryRun: true})
	if err != nil {
		t.Fatalf("dry run: %v", err)
	}
	if !rep.DryRun {
		t.Error("report not marked dry-run")
	}
	if rep.Metrics != nil || rep.Samples != nil {
		t.Error("dry run collected dynamic data")
	}
	if len(rep.Findings) == 0 {
		t.Error("dry run found nothing")
	}
	text := rep.Render()
	if !strings.Contains(text, "dry run") {
		t.Error("rendered report does not mention dry run")
	}
}

// TestSimFailureShipsDryRunReport: the fallback when the dynamic pillars
// fail is the --dry-run report (§3.1), byte for byte once the ledger is
// set aside — no static severity reset, no finding reordered.
func TestSimFailureShipsDryRunReport(t *testing.T) {
	fail := func(context.Context, sim.Config) (*sim.Result, error) {
		return nil, fmt.Errorf("device lost")
	}
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range workloads.Names() {
			w, err := workloads.BuildArch(name, 0, arch)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.SM, name, err)
			}
			dry, err := AnalyzeContext(context.Background(), arch, w.Kernel, nil, Options{DryRun: true})
			if err != nil {
				t.Fatalf("%s/%s dry run: %v", arch.SM, name, err)
			}
			degraded, err := AnalyzeContext(context.Background(), arch, w.Kernel, fail, Options{})
			if err != nil {
				t.Fatalf("%s/%s failed run: %v", arch.SM, name, err)
			}
			if n := len(degraded.Degradations); n != 1 || degraded.Degradations[0].Stage != StageSim {
				t.Fatalf("%s/%s: ledger %+v, want one sim entry", arch.SM, name, degraded.Degradations)
			}
			degraded.Degradations = nil
			want, _ := dry.MarshalJSON()
			got, _ := degraded.MarshalJSON()
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: sim-degraded report differs from the dry run:\n%s\nwant\n%s", arch.SM, name, got, want)
			}
		}
	}
}

func TestReportRender(t *testing.T) {
	rep := analyzeWorkload(t, "mixbench_sp_naive", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	text := rep.Render()
	for _, want := range []string{
		"GPUscout report",
		"vectorized",
		"Warp stalls (CUPTI PC sampling)",
		"Metric analysis (ncu)",
		"Kernel-wide data movement",
		"mixbench.cu:7",
		"g_data[gid * GRANULARITY + j]", // quoted source
		"Overhead:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q\n----\n%s", want, text)
		}
	}
}

func TestCompareView(t *testing.T) {
	// Fig. 7 "Metrics Comparison": old-vs-new metric diff after a fix.
	repOld := analyzeWorkload(t, "mixbench_sp_naive", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	repNew := analyzeWorkload(t, "mixbench_sp_vec4", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	cmp, err := Compare(repOld, repNew)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if cmp.SpeedupX <= 1 {
		t.Errorf("comparison speedup = %.2f, want > 1", cmp.SpeedupX)
	}
	var checkedLd bool
	for _, r := range cmp.Rows {
		if r.Metric == "smsp__inst_executed_op_global_ld.sum" {
			checkedLd = true
			if r.New >= r.Old {
				t.Errorf("global load instructions did not drop: %v -> %v", r.Old, r.New)
			}
		}
	}
	if !checkedLd {
		t.Error("comparison lacks the global-load-instruction metric")
	}
	text := cmp.Render()
	if !strings.Contains(text, "faster") || !strings.Contains(text, "delta") {
		t.Errorf("comparison render incomplete:\n%s", text)
	}
	if _, err := Compare(&Report{}, repNew); err == nil {
		t.Error("Compare accepted dry-run report")
	}
}

func TestDetectorsSilentOnCleanKernel(t *testing.T) {
	// The vec4 mixbench has no spills, no atomics, no conversions.
	rep := analyzeWorkload(t, "mixbench_sp_vec4", 4, Options{Sim: sim.Config{SampleSMs: 1}})
	m := findingsByAnalysis(rep)
	for _, never := range []string{"register_spilling", "shared_atomics", "datatype_conversion"} {
		if len(m[never]) != 0 {
			t.Errorf("%s fired on a kernel without that pattern", never)
		}
	}
}
