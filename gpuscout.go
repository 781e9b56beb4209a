// Package gpuscout is a Go reproduction of GPUscout — "GPUscout: Locating
// Data Movement-related Bottlenecks on GPUs" (Sen, Vanecek, Schulz,
// SC-W 2023) — together with every substrate the paper depends on:
//
//   - a Volta-class SASS instruction set with an nvdisasm-style parser and
//     printer, control-flow/liveness/def-use analyses (internal/sass);
//   - a kernel assembler and register allocator with real spilling to
//     local memory (internal/kasm, internal/codegen);
//   - a cubin container format (internal/cubin);
//   - an execution-driven V100 simulator producing warp-stall and
//     hardware-counter data (internal/sim, internal/memsys);
//   - stand-ins for the CUPTI PC Sampling API and the Nsight Compute
//     metric collector (internal/cupti, internal/ncu);
//   - the GPUscout analysis core: seven bottleneck detectors, stall
//     correlation, metric analysis, severity assessment and the text
//     report (internal/scout);
//   - the paper's case-study workloads (internal/workloads) and
//     experiment drivers regenerating every table and figure
//     (internal/experiments).
//
// This package is the public facade: everything an application needs to
// build or load kernels, run them on the simulated GPU, and analyze them
// with GPUscout.
package gpuscout

import (
	"context"
	"fmt"
	"os"

	"gpuscout/internal/advisor"
	"gpuscout/internal/codegen"
	"gpuscout/internal/cubin"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// --- Architectures ---

// Arch describes a modeled GPU (see gpu.Arch for the parameters).
type Arch = gpu.Arch

// V100 returns the Tesla V100 description the paper's evaluation used.
func V100() Arch { return gpu.V100() }

// P100 returns a Pascal GPU: supported by the simulator and the static
// analysis, rejected by the (modeled) ncu — the --dry-run scenario.
func P100() Arch { return gpu.P100() }

// ArchByName resolves "sm_70"/"sm70"/"V100", "sm_60"/"P100",
// "sm_80"/"sm80"/"A100", ...
func ArchByName(name string) (Arch, error) { return gpu.ByName(name) }

// --- Kernels and SASS ---

// Kernel is a compiled GPU kernel (SASS instructions, resources, line
// table, optional embedded source).
type Kernel = sass.Kernel

// ParseSASS parses nvdisasm-style SASS text (as produced by PrintSASS or
// Binary.Disassemble) into a Kernel.
func ParseSASS(text string) (*Kernel, error) { return sass.Parse(text) }

// PrintSASS renders a kernel as nvdisasm-style text.
func PrintSASS(k *Kernel) string { return sass.Print(k) }

// --- Kernel construction (the nvcc stand-in) ---

// KernelBuilder constructs kernels from virtual-register instructions;
// see the examples/quickstart program for a walkthrough.
type KernelBuilder = kasm.Builder

// NewKernelBuilder starts a kernel named name for the given architecture
// tag ("sm_70"), attributing code to sourceFile.
func NewKernelBuilder(name, archTag, sourceFile string) *KernelBuilder {
	return kasm.NewBuilder(name, archTag, sourceFile)
}

// CompileOptions configure compilation; MaxRegs mirrors -maxrregcount and
// forces register spilling when small.
type CompileOptions = codegen.Options

// CompileKernel lowers a built program to executable SASS: register
// allocation (with spilling to local memory), scoreboard assignment and
// branch resolution.
func CompileKernel(p *kasm.Program, opts CompileOptions) (*Kernel, error) {
	return codegen.Compile(p, opts)
}

// --- Cubins ---

// Binary is a CUDA-binary container holding compiled kernels.
type Binary = cubin.Binary

// NewBinary creates an empty container for one architecture.
func NewBinary(arch string) *Binary { return cubin.New(arch) }

// LoadCubin reads and decodes a cubin file.
func LoadCubin(path string) (*Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gpuscout: %w", err)
	}
	return cubin.Decode(data)
}

// SaveCubin encodes and writes a cubin file.
func SaveCubin(path string, b *Binary) error {
	data, err := cubin.Encode(b)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- Simulated device and launches ---

// Device is a simulated GPU with device memory and texture bindings.
type Device = sim.Device

// NewDevice creates a device of the given architecture.
func NewDevice(arch Arch) *Device { return sim.NewDevice(arch) }

// Buffer is a device memory allocation.
type Buffer = sim.Buffer

// Dim3 is a CUDA grid/block dimension triple.
type Dim3 = sim.Dim3

// D1 makes a 1-D Dim3; D2 a 2-D one.
func D1(x int) Dim3    { return sim.D1(x) }
func D2(x, y int) Dim3 { return sim.D2(x, y) }

// LaunchSpec describes one kernel launch (kernel, grid, block, params).
type LaunchSpec = sim.LaunchSpec

// SimConfig controls the simulation (SM sampling, cycle cap).
type SimConfig = sim.Config

// SimResult is the outcome of a simulated launch: cycles, occupancy,
// stall integrals, and hardware counters.
type SimResult = sim.Result

// Launch runs a kernel on the device.
func Launch(dev *Device, spec LaunchSpec, cfg SimConfig) (*SimResult, error) {
	return sim.Launch(dev, spec, cfg)
}

// LaunchContext is Launch with cancellation: the simulation polls ctx and
// aborts promptly when it is cancelled or times out.
func LaunchContext(ctx context.Context, dev *Device, spec LaunchSpec, cfg SimConfig) (*SimResult, error) {
	return sim.LaunchContext(ctx, dev, spec, cfg)
}

// --- GPUscout analysis ---

// Options configure an analysis run (DryRun, sampling period, simulator).
type Options = scout.Options

// Report is a full GPUscout report; call Render for the text form.
type Report = scout.Report

// Degradation is one ledger entry in a degraded report: the stage and
// instrumented site that failed, how (panic/timeout/error), and what the
// report lost. A report either carries the data or an entry naming
// exactly why it does not.
type Degradation = scout.Degradation

// Finding is one detected bottleneck with sites, stalls and metrics.
type Finding = scout.Finding

// RunFunc launches the analyzed kernel once for the dynamic pillars;
// forward ctx into LaunchContext so aborting the analysis interrupts the
// launch.
type RunFunc = scout.RunContextFunc

// Analyze performs the full GPUscout workflow on a kernel: static SASS
// analysis, warp-stall sampling, metric collection, and evaluation. ctx
// is checked between the pillars and handed to run, so cancelling it
// interrupts the workflow.
func Analyze(ctx context.Context, arch Arch, k *Kernel, run RunFunc, opts Options) (*Report, error) {
	return scout.AnalyzeContext(ctx, arch, k, run, opts)
}

// DryRun performs only the static SASS analysis (no GPU involvement) —
// the tool's --dry-run mode, which also serves architectures ncu does not
// support.
func DryRun(arch Arch, k *Kernel) (*Report, error) {
	return scout.AnalyzeContext(context.Background(), arch, k, nil, Options{DryRun: true})
}

// A100 returns an Ampere GPU description (extensibility demo: the
// analyses run unchanged on newer architectures).
func A100() Arch { return gpu.A100() }

// Comparison is the Fig. 7 "Metrics Comparison" view.
type Comparison = scout.Comparison

// Compare diffs the metrics of two reports (before/after a fix).
func Compare(oldRep, newRep *Report) (*Comparison, error) {
	return scout.Compare(oldRep, newRep)
}

// --- Case-study workloads ---

// Workload is a prepared kernel + launch (the paper's case studies and
// auxiliary kernels).
type Workload = workloads.Workload

// WorkloadNames lists the available workloads.
func WorkloadNames() []string { return workloads.Names() }

// BuildWorkload constructs a registered workload at the given scale
// (0 = the workload's default) for the default Volta target.
func BuildWorkload(name string, scale int) (*Workload, error) {
	return workloads.Build(name, scale)
}

// BuildWorkloadArch constructs a registered workload lowered for the
// given architecture: the same arch-neutral kernel source, compiled by
// that arch's codegen backend (e.g. LDG+STS pairs fuse into
// cp.async-style LDGSTS on sm_80).
func BuildWorkloadArch(name string, scale int, arch Arch) (*Workload, error) {
	return workloads.BuildArch(name, scale, arch)
}

// RunWorkload executes a workload on a fresh device of the given
// architecture, verifies its output, and returns the result.
func RunWorkload(w *Workload, arch Arch, cfg SimConfig) (*SimResult, error) {
	dev := sim.NewDevice(arch)
	return workloads.Execute(w, dev, cfg)
}

// AnalyzeWorkload is the one-call path: build the named workload and run
// the full GPUscout pipeline on it.
func AnalyzeWorkload(name string, scale int, arch Arch, opts Options) (*Report, error) {
	return AnalyzeWorkloadContext(context.Background(), name, scale, arch, opts)
}

// AnalyzeWorkloadContext is AnalyzeWorkload with cancellation. The
// workload is lowered for arch before analysis, so the report reflects
// that backend's instruction selection, not just its machine model. It
// runs the same pipeline function as the gpuscoutd daemon and the CLI.
func AnalyzeWorkloadContext(ctx context.Context, name string, scale int, arch Arch, opts Options) (*Report, error) {
	return advisor.Run(ctx, advisor.Plan{Arch: arch, Opts: opts, Workload: name, Scale: scale})
}

// --- Counterfactual verification (the advisor) ---

// Verification is the measured evidence attached to a finding when its
// recommendation was re-executed: speedup, verdict, stall/metric deltas.
type Verification = scout.Verification

// Verdict grades a verified recommendation: confirmed, neutral, refuted.
type Verdict = scout.Verdict

// Verdict values.
const (
	VerdictConfirmed = scout.VerdictConfirmed
	VerdictNeutral   = scout.VerdictNeutral
	VerdictRefuted   = scout.VerdictRefuted
)

// RecommendationPair maps a detector recommendation on a baseline
// workload to the optimized variant implementing it.
type RecommendationPair = advisor.Pair

// RecommendationPairs lists the advisor's recommendation->variant table.
func RecommendationPairs() []RecommendationPair { return advisor.Pairs() }

// --- Sensitivity sweeps (advisor v2) ---

// Sensitivity is a microarchitectural sensitivity sweep: the analyzed
// kernel re-simulated under each perturbation of the hardware resource
// matrix, with the dominant bottleneck resource named. Attached to the
// report and, filtered per bottleneck class, to each finding.
type Sensitivity = scout.Sensitivity

// ResourceDelta is one perturbation run of a sweep.
type ResourceDelta = scout.ResourceDelta

// StallSlice is the backward producer chain explaining one high-stall PC
// (enable with Options.StallSlices).
type StallSlice = scout.StallSlice

// --- Cross-architecture comparison ---

// ArchComparison is the cross-arch report: the same workload analyzed
// on two architectures, findings matched by detector and source line,
// each classified as persisting, appearing, or disappearing.
type ArchComparison = scout.ArchComparison

// ArchDelta is one finding tracked across the two architectures.
type ArchDelta = scout.ArchDelta

// CompareArchReports diffs two reports of the same kernel produced on
// different architectures.
func CompareArchReports(base, other *Report) *ArchComparison {
	return scout.CompareReports(base, other)
}
