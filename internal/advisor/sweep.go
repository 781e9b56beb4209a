package advisor

import (
	"context"
	"errors"
	"fmt"

	"gpuscout/internal/codegen"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// siteSweep covers one perturbed build+run of the sensitivity matrix.
var siteSweep = faultinject.Register("advisor.sweep")

// sweepLowering hands the sweep the workload lowered for each perturbed
// arch. Perturbations that leave every descriptor field the backend
// reads untouched (codegen.SameLowering — 12 of today's 14) share one
// lowering of the unperturbed arch, built on first use; only the rest
// (today scoreboards/up|down, which change control-info assignment) are
// re-lowered, so reusing the baseline SASS never under-reports them.
type sweepLowering struct {
	workload string
	scale    int
	arch     gpu.Arch
	base     *workloads.Workload
}

func (l *sweepLowering) lower(pa gpu.Arch) (*workloads.Workload, error) {
	if !codegen.SameLowering(l.arch, pa) {
		return workloads.BuildArch(l.workload, l.scale, pa)
	}
	if l.base == nil {
		w, err := workloads.BuildArch(l.workload, l.scale, l.arch)
		if err != nil {
			return nil, err
		}
		l.base = w
	}
	return l.base, nil
}

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
// workload/scale/arch/cfg must match the analyzed run, exactly as for
// Verify. A dry-run report cannot be swept (no baseline measurement). A
// failing perturbation run drops only its own matrix entry, recorded in
// the degradation ledger; an expired deadline skips the remaining
// entries the same way, while an explicit cancellation aborts the pass.
func Sweep(ctx context.Context, rep *scout.Report, workload string, scale int, arch gpu.Arch, cfg sim.Config) (*scout.Sensitivity, error) {
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
	lowering := sweepLowering{workload: workload, scale: scale, arch: arch}
	for _, p := range gpu.Perturbations() {
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, fmt.Errorf("advisor: %w", err)
			}
			rep.Degradations = append(rep.Degradations, scout.Degradation{
				Stage: scout.StageVerify, Site: siteSweep, Kind: scout.DegradeTimeout,
				Detail: fmt.Sprintf("perturbation %s skipped: sweep budget exhausted", p.ID()),
			})
			continue
		}
		var cycles float64
		if err := scout.Guard(scout.StageVerify, siteSweep, func() error {
			if err := faultinject.Hit(siteSweep); err != nil {
				return err
			}
			pa := p.Apply(arch)
			w, err := lowering.lower(pa)
			if err != nil {
				return fmt.Errorf("build under %s: %w", p.ID(), err)
			}
			res, err := workloads.ExecuteContext(ctx, w, sim.NewDevice(pa), cfg)
			if err != nil {
				return fmt.Errorf("run under %s: %w", p.ID(), err)
			}
			cycles = res.Cycles
			return nil
		}); err != nil {
			if errors.Is(err, context.Canceled) && ctx.Err() != nil {
				return nil, fmt.Errorf("advisor: %w", err)
			}
			d := scout.DegradationFor(scout.StageVerify, siteSweep, err, ctx.Err() != nil)
			d.Detail = fmt.Sprintf("perturbation %s missing from sweep: %s", p.ID(), d.Detail)
			rep.Degradations = append(rep.Degradations, d)
			continue
		}
		sens.Deltas = append(sens.Deltas, scout.ResourceDelta{
			Resource:  p.Resource,
			Direction: p.Direction,
			Factor:    p.Factor,
			Cycles:    cycles,
			Delta:     cycles - sens.BaselineCycles,
			Helps:     p.Helps,
		})
	}
	sens.Rank()
	rep.Sensitivity = sens

	// Attach per-finding filtered views and fold the measured headroom
	// into the payoff estimate: the stall-based ceiling says how much of
	// the kernel the finding touches; the dominant resource's relief says
	// how much a real fix in that class actually buys.
	for i := range rep.Findings {
		f := &rep.Findings[i]
		fs := sens.FilterFor(f.Analysis)
		f.Sensitivity = fs
		if f.EstSpeedup > 0 && fs.Dominant != "" {
			headroom := fs.DominantRelief - 1
			if headroom > 0 {
				f.EstSpeedup *= 1 + headroom
			}
		}
	}
	rep.SortFindings()
	return sens, nil
}
