package advisor

import (
	"context"
	"fmt"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// siteSweep covers one perturbed run of the sensitivity matrix; its guard
// also covers the build they all share.
var siteSweep = faultinject.Register("advisor.sweep")

// buildArch is workloads.BuildArch; a variable only so
// TestSweepLoweringReuse can count the lowerings of a sweep and of a
// whole Run.
var buildArch = workloads.BuildArch

// Sweep runs the microarchitectural sensitivity analysis (Pompougnac et
// al.): the analyzed kernel is re-simulated under every
// perturbation of the gpu.Perturbations matrix — one hardware resource
// scaled at a time — and the cycle deltas identify the resource the
// kernel is actually bound by. The full matrix is attached to the report;
// each finding gets a filtered view over the resources its bottleneck
// class can involve, and its GPA-style estimated speedup is widened by
// the measured headroom of its dominant resource. Findings are re-sorted
// by the updated payoff.
//
// The kernel executes once, recorded, on the unperturbed arch. A cell is
// a replay of that recording under the perturbed arch (Recording.Replay)
// unless Recording.Inert proves the replay would measure the baseline:
// every shared access costs as before on the new bank count, or no set of
// the old or new cache geometry holds more of an SM's lines than it has
// ways. A launch that is not replayable executes every cell.
// workload/scale/arch/cfg must match the analyzed run, exactly as for
// Verify: a recording execution that does not reproduce the report's
// cycle count is an error. A dry-run report cannot be swept (no baseline
// measurement). A failing perturbation run drops only its own matrix
// entry, recorded in the degradation ledger; an expired deadline skips
// the remaining entries the same way, while an explicit cancellation
// aborts the pass.
func Sweep(ctx context.Context, rep *scout.Report, workload string, scale int, arch gpu.Arch, cfg sim.Config) (*scout.Sensitivity, error) {
	return sweep(ctx, rep, nil, workload, scale, arch, cfg)
}

// sweep is Sweep over base, the analyzed run's own lowering and recording
// when the caller (Run) holds them; nil lowers and records here.
func sweep(ctx context.Context, rep *scout.Report, base *baseline, workload string, scale int, arch gpu.Arch, cfg sim.Config) (*scout.Sensitivity, error) {
	if rep == nil {
		return nil, fmt.Errorf("advisor: nil report")
	}
	if rep.DryRun || rep.Result == nil {
		return nil, fmt.Errorf("advisor: cannot sweep a dry-run report (no baseline measurement)")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	sens := &scout.Sensitivity{BaselineCycles: rep.Result.Cycles}
	// One lowering and one execution serve the whole matrix (see
	// gpu.Perturbation.Apply); when missing they are made here, before the
	// cells, under the site's panic guard: a failing build or recording
	// fails every cell the same way, one ledger entry per perturbation.
	var baseErr error
	if base == nil {
		var res *sim.Result
		base = &baseline{}
		if err := scout.Guard(scout.StageVerify, siteSweep, func() error {
			if base.w, baseErr = buildArch(workload, scale, arch); baseErr == nil {
				res, base.rec, baseErr = workloads.RecordContext(ctx, base.w, sim.NewDevice(arch), cfg)
			}
			return nil
		}); err != nil {
			baseErr = err
		}
		if baseErr == nil && res.Cycles != sens.BaselineCycles {
			return nil, fmt.Errorf("advisor: sweep of %s@%d on %s ran %v cycles unperturbed, the report measured %v: not the analyzed run",
				workload, scale, arch.SM, res.Cycles, sens.BaselineCycles)
		}
	}

	perts := gpu.Perturbations()
	cells := make([]*scout.ResourceDelta, len(perts))
	if err := rerunAll(ctx, rep, siteSweep, "sweep budget exhausted", "missing from sweep", len(perts),
		func(i int) string { return "perturbation " + perts[i].ID() }, func(i int) error {
			p := perts[i]
			if baseErr != nil {
				return fmt.Errorf("build under %s: %w", p.ID(), baseErr)
			}
			pa := p.Apply(arch)
			res := &sim.Result{Cycles: sens.BaselineCycles} // what a proved cell's replay measures
			var err error
			if base.rec == nil {
				res, err = workloads.ExecuteContext(ctx, base.w, sim.NewDevice(pa), cfg)
			} else if !base.rec.Inert(pa) {
				res, err = base.rec.Replay(ctx, pa)
			}
			if err != nil {
				return fmt.Errorf("run under %s: %w", p.ID(), err)
			}
			cells[i] = &scout.ResourceDelta{Resource: p.Resource, Direction: p.Direction, Factor: p.Factor,
				Cycles: res.Cycles, Delta: res.Cycles - sens.BaselineCycles, Helps: p.Helps}
			return nil
		}); err != nil {
		return nil, err
	}
	for _, d := range cells {
		if d != nil { // a lost cell is already in the ledger
			sens.Deltas = append(sens.Deltas, *d)
		}
	}
	sens.Rank()
	rep.AttachSensitivity(sens)
	return sens, nil
}
