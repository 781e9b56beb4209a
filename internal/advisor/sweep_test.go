package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// stageClock returns a context whose clock counts, per stage, the
// reports of a positive duration.
func stageClock() (context.Context, map[string]int) {
	var mu sync.Mutex
	timed := map[string]int{}
	return scout.WithClock(context.Background(), func(stage string, took time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if took > 0 {
			timed[stage]++
		}
	}), timed
}

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

// TestSweepLoweringReuse pins the invariant the sweep's single lowering
// rests on (gpu.Perturbation.Apply): for every perturbation × workload ×
// arch, a fresh BuildArch for the perturbed arch must print the SASS of
// the unperturbed build — the one kernel Sweep simulates under all of
// them. A perturbation that starts moving a field codegen reads fails
// here instead of silently simulating the wrong kernel. The second half
// guards the other direction: one Sweep lowers its workload once and
// executes it once (its recording run; every cell is a replay or proved
// inert), and a whole swept Run lowers it once and executes nothing
// beyond the analyzed run: no cell calls Prepare. Run is the only place a plan is lowered, and
// it keeps nothing between calls: a plain Run is one lowering and one
// execution, a dry run one lowering and none, and a second Run of the
// same Plan value lowers and executes again.
func TestSweepLoweringReuse(t *testing.T) {
	perts := gpu.Perturbations()
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range workloads.Names() {
			scale := goldenScale(t, name)
			base, err := workloads.BuildArch(name, scale, arch)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch.SM, name, err)
			}
			want := sass.Print(base.Kernel)
			for _, p := range perts {
				fresh, err := workloads.BuildArch(name, scale, p.Apply(arch))
				if err != nil {
					t.Fatalf("%s/%s fresh build under %s: %v", arch.SM, name, p.ID(), err)
				}
				if sass.Print(fresh.Kernel) != want {
					t.Errorf("%s/%s under %s: a fresh lowering differs from the kernel the sweep simulates", arch.SM, name, p.ID())
				}
			}
		}
	}

	builds, prepares := countLowerings(t)
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "transpose_naive", 64, cfg)
	s, err := Sweep(context.Background(), rep, "transpose_naive", 64, gpu.V100(), cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(s.Deltas) != len(perts) || builds.Load() != 1 || prepares.Load() != 1 {
		t.Errorf("sweep ran %d of %d perturbations over %d lowerings and %d executions, want one of each", len(s.Deltas), len(perts), builds.Load(), prepares.Load())
	}

	builds.Store(0)
	prepares.Store(0)
	out, err := Run(context.Background(), Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: cfg},
		Workload: "transpose_naive", Scale: 64, Sensitivity: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if swept := out.Report.Sensitivity; swept == nil || len(swept.Deltas) != len(perts) || builds.Load() != 1 || prepares.Load() != 1 {
		t.Errorf("a swept Run made %d lowerings and %d executions (sensitivity %+v), want one lowering and the baseline execution alone", builds.Load(), prepares.Load(), swept)
	}

	plain := Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: cfg}, Workload: "transpose_naive", Scale: 64}
	dry := plain
	dry.Opts.DryRun = true
	for _, tc := range []struct {
		name            string
		p               Plan
		runs            int
		builds, prepare int64
	}{{"plain", plain, 1, 1, 1}, {"dry run", dry, 1, 1, 0}, {"the same Plan twice", plain, 2, 2, 2}} {
		builds.Store(0)
		prepares.Store(0)
		ctx, timed := stageClock()
		for i := 0; i < tc.runs; i++ {
			out, err := Run(ctx, tc.p)
			if err != nil || out.Report.DryRun != tc.p.Opts.DryRun {
				t.Fatalf("%s: Run: %v (outcome %+v)", tc.name, err, out)
			}
		}
		if builds.Load() != tc.builds || prepares.Load() != tc.prepare {
			t.Errorf("%s: %d lowerings and %d executions, want %d and %d", tc.name, builds.Load(), prepares.Load(), tc.builds, tc.prepare)
		}
		if timed[scout.TimeBuild] != int(tc.builds) {
			t.Errorf("%s: the clock timed %d builds, want one per lowering (%d)", tc.name, timed[scout.TimeBuild], tc.builds)
		}
	}
}

// TestRunGuardsLowering: lowering happens inside Run, on a daemon worker,
// so a crash in codegen must come back as a typed parse-stage StageError
// — transient, like every recovered panic — and not unwind the caller.
func TestRunGuardsLowering(t *testing.T) {
	buildArch = func(string, int, gpu.Arch) (*workloads.Workload, error) { panic("codegen bug") }
	t.Cleanup(func() { buildArch = workloads.BuildArch })
	out, err := Run(context.Background(), Plan{Arch: gpu.V100(), Workload: "transpose_naive", Scale: 64})
	var se *scout.StageError
	if !errors.As(err, &se) || se.Stage != scout.StageParse || se.PanicValue == nil || !scout.TransientError(err) {
		t.Fatalf("Run: err = %v, want a transient parse-stage panic StageError", err)
	}
	if out == nil || out.Report != nil {
		t.Errorf("outcome %+v, want non-nil without a report", out)
	}
}

// countLowerings points the buildArch hook, for the rest of the test, at a
// BuildArch that counts its calls and the Prepare calls — the executions
// — of the workloads it returns. The counters are atomic: a pass's cells
// run concurrently.
func countLowerings(t *testing.T) (builds, prepares *atomic.Int64) {
	builds, prepares = new(atomic.Int64), new(atomic.Int64)
	buildArch = func(name string, scale int, arch gpu.Arch) (*workloads.Workload, error) {
		builds.Add(1)
		w, err := workloads.BuildArch(name, scale, arch)
		if err == nil {
			prepare := w.Prepare
			w.Prepare = func(dev *sim.Device) (*workloads.Run, error) {
				prepares.Add(1)
				return prepare(dev)
			}
		}
		return w, err
	}
	t.Cleanup(func() { buildArch = workloads.BuildArch })
	return builds, prepares
}

// TestSweepRefusesAnotherRunsReport: Sweep's precondition — workload,
// scale, arch and cfg are the analyzed run's — is checked, not trusted:
// its recording execution must reproduce the report's cycle count, or it
// returns an error naming both numbers and attaches nothing.
func TestSweepRefusesAnotherRunsReport(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "sgemm_naive", 64, cfg)
	s, err := Sweep(context.Background(), rep, "sgemm_naive", 128, gpu.V100(), cfg)
	if err == nil {
		t.Fatalf("a report of scale 64 was swept at scale 128: %+v", s)
	}
	other := analyze(t, "sgemm_naive", 128, cfg)
	for _, cycles := range []float64{rep.Result.Cycles, other.Result.Cycles} {
		if want := fmt.Sprint(cycles); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s cycles", err, want)
		}
	}
	if rep.Sensitivity != nil || len(rep.Degradations) != 0 {
		t.Errorf("the refused sweep left sensitivity %+v and ledger %+v on the report", rep.Sensitivity, rep.Degradations)
	}
}

// atomBranchKernel is not replayable: every thread takes a ticket with an
// ATOM whose return value decides a branch, so which threads run the
// extra store depends on the order the warps reached the atomic — on
// timing.
const atomBranchKernel = `.kernel atom_branch sm_70 regs=8 shared=0 local=0 const=368
/*0000*/ MOV R2, c[0x0][0x160] ;
/*0010*/ MOV R3, c[0x0][0x164] ;
/*0020*/ MOV R5, 0x1 ;
/*0030*/ ATOM.E.ADD R4, [R2], R5 ;
/*0040*/ ISETP.GE.AND P0, PT, R4, 0x40, PT ;
/*0050*/ @P0 BRA 0x80 ;
/*0060*/ SHF.L R6, R4, 0x2, RZ ;
/*0070*/ STG.E.SYS [R2+0x100], R6 ;
/*0080*/ EXIT ;
`

// TestNonReplayableFallsBack: a launch whose instruction stream depends
// on timing is refused at record time, and its sweep re-executes every
// cell as sweeps did before recordings — with the same numbers as
// executing each perturbation by hand.
func TestNonReplayableFallsBack(t *testing.T) {
	k, err := sass.Parse(atomBranchKernel)
	if err != nil {
		t.Fatal(err)
	}
	var executions atomic.Int64 // the fallback's cells execute concurrently
	w := &workloads.Workload{Name: "atom_branch", Kernel: k, Prepare: func(dev *sim.Device) (*workloads.Run, error) {
		executions.Add(1)
		buf, err := dev.Alloc(4096)
		if err != nil {
			return nil, err
		}
		return &workloads.Run{Spec: sim.LaunchSpec{Kernel: k, Grid: sim.D1(8), Block: sim.D1(128), Params: []uint64{buf.Addr}}}, nil
	}}
	arch, cfg, ctx := gpu.V100(), sim.Config{SampleSMs: 2, Workers: 1}, context.Background()
	res, rec, err := workloads.RecordContext(ctx, w, sim.NewDevice(arch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("a kernel that branches on an ATOM's return value was recorded")
	}

	rep := &scout.Report{Kernel: k.Name, Arch: arch.SM, Result: res}
	executions.Store(0)
	perts := gpu.Perturbations()
	sw := &sweeper{slots: newSlots(), arch: arch, cfg: cfg, w: w,
		budgeted: func() (context.Context, context.CancelFunc) { return context.WithCancel(ctx) }}
	defer sw.stop()
	s, err := sw.finish(rep)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(s.Deltas) != len(perts) || executions.Load() != int64(len(perts)) || len(rep.Degradations) != 0 {
		t.Fatalf("fallback sweep: %d deltas from %d executions, ledger %+v; want %d of each and no entry", len(s.Deltas), executions.Load(), rep.Degradations, len(perts))
	}
	for i, p := range perts {
		want, err := workloads.ExecuteContext(ctx, w, sim.NewDevice(p.Apply(arch)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Deltas[i].Cycles != want.Cycles {
			t.Errorf("%s: the sweep measured %v cycles, a re-execution %v", p.ID(), s.Deltas[i].Cycles, want.Cycles)
		}
	}
}

// TestChaosReplayedCellLaunchFault: a replayed cell still passes through
// sim.launch's fault hook inside advisor.rerun's guard, so a launch fault
// during one cell costs exactly that cell — one ledger entry, the other
// eleven measured. The fault is armed on the 6th sim.launch hit (hit 1 is
// the analyzed, recorded launch), but the cells run concurrently, so
// which cell takes that hit depends on timing: the test finds the lost
// cell from the matrix and checks what holds for any of them. A cell the
// recording proves inert replays nothing and never reaches sim.launch;
// the hit still lands on a replay, because the six cells of the axes the
// proof does not cover (dram_latency, dram_bandwidth, issue_width) always
// replay. TestChaosProvedCellSiteFault covers the proved cells.
func TestChaosReplayedCellLaunchFault(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	perts := gpu.Perturbations()
	if _, err := faultinject.Arm(faultinject.Fault{Site: "sim.launch", Mode: faultinject.ModeError, SkipHits: 5, Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, prepares := countLowerings(t)
	out, err := Run(context.Background(), Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: sim.Config{SampleSMs: 1}},
		Workload: "transpose_naive", Scale: 64, Sensitivity: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := out.Report
	if prepares.Load() != 1 {
		t.Fatalf("%d executions: the cells of this sweep were not replays", prepares.Load())
	}
	if rep.Sensitivity == nil || len(rep.Sensitivity.Deltas) != len(perts)-1 || len(rep.Degradations) != 1 {
		t.Fatalf("sensitivity %+v, ledger %+v; want %d cells and one entry", rep.Sensitivity, rep.Degradations, len(perts)-1)
	}
	// The deltas must be the matrix in perturbation order with one cell
	// left out — the first position that disagrees — and that cell is the
	// one the ledger entry names.
	k := len(perts) - 1
	for i, d := range rep.Sensitivity.Deltas {
		if d.Resource != perts[i].Resource || d.Direction != perts[i].Direction {
			k = i
			break
		}
	}
	lost := perts[k]
	for i, d := range rep.Sensitivity.Deltas[k:] {
		if p := perts[k+1+i]; d.Resource != p.Resource || d.Direction != p.Direction {
			t.Errorf("delta %d is %s/%s, want %s: the measured cells are not in matrix order", k+i, d.Resource, d.Direction, p.ID())
		}
	}
	if d := rep.Degradations[0]; d.Stage != scout.StageVerify || d.Site != "advisor.sweep" || d.Kind != scout.DegradeError ||
		!strings.HasPrefix(d.Detail, "perturbation "+lost.ID()+" missing from sweep: ") || !strings.Contains(d.Detail, "sim.launch") {
		t.Errorf("ledger entry %+v, want verify/advisor.sweep/error for %s naming sim.launch", d, lost.ID())
	}
}

// TestChaosProvedCellSiteFault: a cell the recording proves inert skips
// its replay, not advisor.rerun's fault hook and panic guard, so when the
// advisor.sweep site fails every cell — proved or replayed — costs
// exactly one ledger entry, in matrix order, and none is measured.
func TestChaosProvedCellSiteFault(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	p := Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: sim.Config{SampleSMs: 1}},
		Workload: "transpose_naive", Scale: 64, Sensitivity: true}
	w, err := workloads.BuildArch(p.Workload, p.Scale, p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := workloads.RecordContext(context.Background(), w, sim.NewDevice(p.Arch), p.Opts.Sim)
	if err != nil || rec == nil {
		t.Fatalf("record: %v (recording %v)", err, rec)
	}
	perts, proved := gpu.Perturbations(), 0
	for _, pert := range perts {
		inert := true
		for i := range rec.SMs() {
			_, replayed, err := rec.Finish(context.Background(), pert.Apply(p.Arch), i)
			if err != nil {
				t.Fatalf("%s: SM %d: %v", pert.ID(), i, err)
			}
			inert = inert && !replayed
		}
		if inert {
			proved++
		}
	}
	if proved == 0 {
		t.Fatal("no cell of this sweep is proved inert: the test would not reach a proved cell")
	}
	if _, err := faultinject.Arm(faultinject.Fault{Site: "advisor.sweep", Mode: faultinject.ModeError}); err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := out.Report
	if rep.Sensitivity == nil || len(rep.Sensitivity.Deltas) != 0 || len(rep.Degradations) != len(perts) {
		t.Fatalf("sensitivity %+v, ledger %+v; want no cell and %d entries", rep.Sensitivity, rep.Degradations, len(perts))
	}
	for i, d := range rep.Degradations {
		if id := perts[i].ID(); d.Site != "advisor.sweep" || d.Kind != scout.DegradeError ||
			!strings.HasPrefix(d.Detail, "perturbation "+id+" missing from sweep: ") || !strings.Contains(d.Detail, "injected") {
			t.Errorf("entry %d = %+v, want an injected advisor.sweep error for %s", i, d, id)
		}
	}
}

// TestRunCancelledMidPass: an explicit cancel while a pass's items are in
// flight aborts Run with a wrapped context.Canceled, and Run returns only
// after every worker of the pool has exited.
func TestRunCancelledMidPass(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if _, err := faultinject.Arm(faultinject.Fault{Site: "advisor.sweep", Mode: faultinject.ModeDelay, Delay: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for faultinject.Fired("advisor.sweep") == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	out, err := Run(ctx, Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: sim.Config{SampleSMs: 1}},
		Workload: "transpose_naive", Scale: 64, Sensitivity: true})
	if !errors.Is(err, context.Canceled) || out.Report != nil {
		t.Fatalf("Run: err = %v, report %v; want a wrapped context.Canceled and no report", err, out.Report != nil)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled Run, %d before", n, before)
	}
}

// TestSweepFailingBuildCostsOneEntryPerCell: the shared lowering is
// built inside the cells' guard, so a workload that does not build
// ships the report without a matrix and with one ledger entry per
// missing perturbation, not an error.
func TestSweepFailingBuildCostsOneEntryPerCell(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "transpose_naive", 64, cfg)
	s, err := Sweep(context.Background(), rep, "no_such_workload", 64, gpu.V100(), cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	perts := gpu.Perturbations()
	if len(s.Deltas) != 0 || len(rep.Degradations) != len(perts) {
		t.Fatalf("got %d deltas and %d ledger entries, want 0 and %d", len(s.Deltas), len(rep.Degradations), len(perts))
	}
	for i, d := range rep.Degradations {
		id := perts[i].ID()
		if d.Stage != scout.StageVerify || d.Site != "advisor.sweep" || d.Kind != scout.DegradeError ||
			!strings.HasPrefix(d.Detail, "perturbation "+id+" missing from sweep: ") ||
			!strings.Contains(d.Detail, "build under "+id+": workloads: unknown workload") {
			t.Errorf("entry %d = %+v, want a verify/advisor.sweep/error entry for %s's failed build", i, d, id)
		}
	}
}

// TestSweepTwiceIsIdempotent: the payoff widening starts from the
// stall-based ceiling, not from what the finding already holds, so
// sweeping a swept report neither compounds the estimates nor reorders
// the findings.
func TestSweepTwiceIsIdempotent(t *testing.T) {
	cfg := sim.Config{SampleSMs: 1}
	rep := analyze(t, "jacobi_naive", 128, cfg)
	var docs [2][]byte
	for i := range docs {
		if _, err := Sweep(context.Background(), rep, "jacobi_naive", 128, gpu.V100(), cfg); err != nil {
			t.Fatalf("Sweep %d: %v", i+1, err)
		}
		var err error
		if docs[i], err = rep.MarshalJSON(); err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("a second sweep changed the report:\n%s", firstDiff(string(docs[1]), string(docs[0])))
	}
}

// TestEveryPerturbationMovesSomeKernel keeps an inert axis out of the
// matrix: every entry of gpu.Perturbations must move cycles in at least
// one committed golden report. An axis the simulator cannot see (the
// removed scoreboards axis: 100 of 100 golden cells at delta 0) prints a
// "+0.00%" the model never measured. One axis the simulator does read
// also moves no golden: at the golden scales every kernel's L1 working
// set fits half the cache, so l1_capacity's witness is a swept
// jacobi_naive at its case-study scale — the only simulation here.
func TestEveryPerturbationMovesSomeKernel(t *testing.T) {
	moved := map[string]bool{}
	note := func(s *scout.Sensitivity) {
		for _, d := range s.Deltas {
			if d.Delta != 0 {
				moved[d.Resource+"/"+d.Direction] = true
			}
		}
	}
	for _, path := range goldenJSONPaths(t) {
		if strings.HasPrefix(filepath.Base(path), "archcompare_") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep scout.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rep.Sensitivity == nil {
			t.Fatalf("%s: no kernel-wide sensitivity block", path)
		}
		note(rep.Sensitivity)
	}
	cfg := sim.Config{SampleSMs: 1}
	s, err := Sweep(context.Background(), analyze(t, "jacobi_naive", 512, cfg), "jacobi_naive", 512, gpu.V100(), cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	note(s)
	for _, p := range gpu.Perturbations() {
		if !moved[p.ID()] {
			t.Errorf("%s moves cycles in no golden report: the simulator does not read what it scales", p.ID())
		}
	}
}
