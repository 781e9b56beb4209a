// Package workloads provides the paper's case-study kernels (§5) —
// Mixbench, the 2D Jacobi heat-transfer stencil, and SGEMM — in their
// naive and optimized variants, plus auxiliary kernels exercising the
// remaining detectors (register spilling for Fig. 2, atomics for §4.4).
//
// Each kernel is written against the kasm builder to mirror what nvcc
// emits for the corresponding CUDA source (which is embedded, so reports
// can quote source lines), then compiled by internal/codegen. A family
// file holds a kernel body, a data pattern and a host reference; compile
// (harness.go) is the one launch harness under all of them, and this file
// the table of names and the rule for scales.
package workloads

import (
	"context"
	"fmt"
	"math"
	"sort"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// Run is a prepared launch: the spec to execute plus a correctness check
// to run afterwards.
type Run struct {
	Spec sim.LaunchSpec
	// Verify checks the device-side results. It receives the simulation
	// result so it can skip blocks that were not simulated under SM
	// sampling (see sim.Result.RanBlocks).
	Verify func(dev *sim.Device, res *sim.Result) error
}

// Workload is a compiled kernel together with its launch preparation.
type Workload struct {
	// Name identifies the workload variant, e.g. "sgemm_shared".
	Name string
	// Description is a one-line human summary.
	Description string
	// Kernel is the compiled SASS.
	Kernel *sass.Kernel
	// Prepare allocates the device buffers, declares their contents
	// (sim.Device.Fill: filled on first touch) and returns the launch.
	Prepare func(dev *sim.Device) (*Run, error)
}

// maxScale bounds every workload's scale. Every kernel parameter and loop
// bound in the package is 32 bits wide and every footprint formula is
// plain int arithmetic: up to this bound no formula overflows int64 and
// every value fits its 32-bit slot; past it no data-sized family fits
// sim.MaxDeviceBytes anyway, and an iteration count over 16 M is not a
// launch anyone waits for.
const maxScale = 1 << 24

// scaleRule is how a family reads the scale of a request.
type scaleRule struct {
	means    string // what scale is, quoted in the errors
	def      int    // the scale that <= 0 selects
	multiple int    // every accepted scale is a multiple of it
	fixed    bool   // the family ignores scale: every accepted one is def
}

// apply resolves a requested scale to the one the family builds at.
func (r scaleRule) apply(name string, scale int) (int, error) {
	switch {
	case scale <= 0:
		return r.def, nil
	case scale > maxScale:
		return 0, fmt.Errorf("workloads: %s: scale %d (%s) is over the bound of %d", name, scale, r.means, maxScale)
	case scale%r.multiple != 0:
		return 0, fmt.Errorf("workloads: %s: scale %d (%s) is not a multiple of %d", name, scale, r.means, r.multiple)
	case r.fixed:
		return r.def, nil
	}
	return scale, nil
}

type entry struct {
	name    string
	family  func(name, variant string, scale int, arch gpu.Arch) (*Workload, error)
	variant string
	scale   scaleRule
}

// registry is every workload, one entry each: its name, the family that
// builds it, the family's variant it selects, and how it reads scale. It
// is sorted by name: lookup searches it, and callers that iterate it (the
// golden suite, the CLI's listing, the daemon) must see one fixed order.
var registry = []entry{
	{"histogram_global", histogram, "global", histogramScale},
	{"histogram_shared", histogram, "shared", histogramScale},
	{"jacobi_naive", jacobi, "naive", jacobiScale},
	{"jacobi_restrict", jacobi, "restrict", jacobiScale},
	{"jacobi_shared", jacobi, "shared", jacobiScale},
	{"jacobi_texture", jacobi, "texture", jacobiScale},
	{"mixbench_dp_naive", mixbench, "dp_naive", mixbenchScale},
	{"mixbench_dp_vec4", mixbench, "dp_vec4", mixbenchScale},
	{"mixbench_int_naive", mixbench, "int_naive", mixbenchScale},
	{"mixbench_int_vec4", mixbench, "int_vec4", mixbenchScale},
	{"mixbench_sp_naive", mixbench, "sp_naive", mixbenchScale},
	{"mixbench_sp_vec4", mixbench, "sp_vec4", mixbenchScale},
	{"reduction_atomic", reduction, "atomic", reductionScale},
	{"reduction_shfl", reduction, "shfl", reductionScale},
	{"sgemm_naive", sgemm, "naive", sgemmScale},
	{"sgemm_restrict", sgemm, "restrict", sgemmScale},
	{"sgemm_shared", sgemm, "shared", sgemmTiledScale},
	{"sgemm_shared_vec", sgemm, "shared_vec", sgemmTiledScale},
	{"spill_pressure", spill, "pressure", spillScale},
	{"spill_relief", spill, "relief", spillScale},
	{"transpose_naive", transpose, "naive", transposeScale},
	{"transpose_padded", transpose, "padded", transposeScale},
	{"transpose_shared", transpose, "shared", transposeScale},
}

// lookup finds name's row and resolves the requested scale against its
// rule: all of a request for a workload that is checked before lowering.
func lookup(name string, scale int) (entry, int, error) {
	i := sort.Search(len(registry), func(i int) bool { return registry[i].name >= name })
	if i == len(registry) || registry[i].name != name {
		return entry{}, 0, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	n, err := registry[i].scale.apply(name, scale)
	return registry[i], n, err
}

// Names lists registered workload names, sorted. The returned slice is a
// copy; callers may mutate it freely.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Scale checks a request for a workload without lowering it: the scale
// name is built at when asked for scale (0 selects the family's default),
// or BuildArch's error for an unknown name or a scale the family refuses.
func Scale(name string, scale int) (resolved int, err error) {
	_, resolved, err = lookup(name, scale)
	return resolved, err
}

// Build constructs a registered workload at the given scale (0 selects
// the workload's default scale) for the default Volta-class target.
func Build(name string, scale int) (*Workload, error) {
	return BuildArch(name, scale, gpu.V100())
}

// BuildArch constructs a registered workload compiled for the given
// architecture: the same arch-neutral kernel source, lowered by the
// arch's codegen backend (e.g. LDG+STS fused into cp.async-style LDGSTS
// on sm_80).
func BuildArch(name string, scale int, arch gpu.Arch) (*Workload, error) {
	e, n, err := lookup(name, scale)
	if err != nil {
		return nil, err
	}
	if arch.Name == "" {
		arch = gpu.V100()
	}
	return e.family(name, e.variant, n, arch)
}

// Execute prepares and launches the workload on a fresh device, verifies
// the result, and returns the simulation result.
func Execute(w *Workload, dev *sim.Device, cfg sim.Config) (*sim.Result, error) {
	return ExecuteContext(context.Background(), w, dev, cfg)
}

// ExecuteContext is Execute with cancellation: the simulated launch polls
// ctx and aborts promptly when it is cancelled.
func ExecuteContext(ctx context.Context, w *Workload, dev *sim.Device, cfg sim.Config) (*sim.Result, error) {
	res, _, err := execute(ctx, w, dev, cfg, false)
	return res, err
}

// RecordContext is ExecuteContext that also returns the launch's
// recording for sim.Recording.Finish — nil when the launch is not
// replayable (see sim.Record). The host check has then vouched for the
// very instruction stream every replay times.
func RecordContext(ctx context.Context, w *Workload, dev *sim.Device, cfg sim.Config) (*sim.Result, *sim.Recording, error) {
	return execute(ctx, w, dev, cfg, true)
}

func execute(ctx context.Context, w *Workload, dev *sim.Device, cfg sim.Config, record bool) (*sim.Result, *sim.Recording, error) {
	run, err := w.Prepare(dev)
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: prepare %s: %w", w.Name, err)
	}
	var res *sim.Result
	var rec *sim.Recording
	if record {
		res, rec, err = sim.Record(ctx, dev, run.Spec, cfg)
	} else {
		res, err = sim.LaunchContext(ctx, dev, run.Spec, cfg)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("workloads: launch %s: %w", w.Name, err)
	}
	if run.Verify != nil {
		if err := run.Verify(dev, res); err != nil {
			return nil, nil, fmt.Errorf("workloads: verify %s: %w", w.Name, err)
		}
	}
	return res, rec, nil
}

// almostEqual compares floats with a relative tolerance, for verifying
// kernels whose operation order differs from the host reference.
func almostEqual(a, b, relTol float64) bool {
	return math.Abs(a-b) <= relTol*max(math.Abs(a), math.Abs(b))+1e-6
}
