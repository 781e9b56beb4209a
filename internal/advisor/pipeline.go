package advisor

import (
	"context"
	"fmt"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// Plan is one analysis target: the form every front end — the daemon's
// job executor, the library facade, the CLI — lowers a request to before
// handing it to Run. It names its target; nothing in it is lowered yet.
type Plan struct {
	Arch gpu.Arch
	Opts scout.Options
	// Workload and Scale name a built-in workload, which Run lowers. The
	// re-execution passes need them too: recommendation pairs are
	// workload-keyed.
	Workload string
	Scale    int
	// Verify and Sensitivity add the counterfactual re-runs and the
	// perturbation sweep on top of the finished report.
	Verify, Sensitivity bool
	// Kernel, when set, is an uploaded kernel, analyzed as it stands: it
	// has no launch harness, so the analysis is static.
	Kernel *sass.Kernel
}

// Run is the lower → analyze → verify → sweep pipeline, the one place
// the four are sequenced and the only place a workload is lowered — under
// a parse-stage guard, so a crash in codegen is a typed StageError. The
// sweep's cells start as the recorded baseline's SMs finish, in the job's
// slots. When ctx carries a deadline, the verify budget slice is derived
// here, once, from the time left at entry; verification and the sweep
// (both re-execution passes) each get a slice of that size measured from
// their own start. An expired slice ships the remaining findings
// unverified or the remaining perturbations as ledger entries; the
// caller's deadline and an explicit cancel still abort with an error,
// once every item has exited. Each step that runs reports its time to
// ctx's clock. The report is the run's whole result: each verdict is on
// its finding's Verification block, the sweep's on Report.Sensitivity,
// and a static fallback is Report.DryRun plus its ledger.
func Run(ctx context.Context, p Plan) (*scout.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// budgeted derives one re-execution pass's context from the slice.
	budgeted := func() (context.Context, context.CancelFunc) { return context.WithCancel(ctx) }
	if slice, ok := scout.StageSlice(ctx, scout.StageVerify); ok {
		budgeted = func() (context.Context, context.CancelFunc) { return context.WithTimeout(ctx, slice) }
	}
	slots := newSlots()
	sw := &sweeper{slots: slots, budgeted: budgeted, arch: p.Arch, cfg: p.Opts.Sim}
	defer sw.stop()
	kernel := p.Kernel
	var run scout.RunContextFunc
	if kernel == nil {
		end := scout.Time(ctx, scout.TimeBuild)
		err := scout.Guard(scout.StageParse, "advisor.lower", func() (err error) {
			sw.w, err = buildArch(p.Workload, p.Scale, p.Arch)
			return err
		})
		end()
		if err != nil {
			return nil, err
		}
		kernel = sw.w.Kernel
		if !p.Opts.DryRun {
			// With Sensitivity the sweep times this very execution under
			// each perturbation, so it is recorded.
			run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
				if p.Sensitivity {
					return sw.record(ctx)
				}
				return workloads.ExecuteContext(ctx, sw.w, sim.NewDevice(p.Arch), cfg)
			}
		}
	}

	slots <- struct{}{}
	end := scout.Time(ctx, scout.TimeAnalyze)
	rep, err := scout.AnalyzeContext(ctx, p.Arch, kernel, run, p.Opts)
	end()
	<-slots
	if err != nil {
		return nil, err
	}
	if rep.DryRun && !p.Opts.DryRun {
		// With no baseline to re-execute against, each requested pass
		// ships as one ledger entry instead of failing the job.
		skipped := func(site string) scout.Degradation {
			return scout.Degradation{Stage: scout.StageVerify, Site: site, Kind: scout.DegradeError,
				Detail: "skipped: the report fell back to static analysis (no baseline measurement)"}
		}
		if p.Verify {
			rep.Degradations = append(rep.Degradations, skipped(siteVerify))
		}
		if p.Sensitivity {
			rep.Degradations = append(rep.Degradations, skipped(siteSweep))
		}
		p.Verify, p.Sensitivity = false, false
	}
	if p.Verify {
		vctx, cancel := budgeted()
		end := scout.Time(ctx, scout.TimeVerify)
		_, err = verify(vctx, slots, rep, p.Workload, p.Scale, p.Arch, p.Opts.Sim)
		end()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("verify on %s: %w", p.Arch.SM, err)
		}
	}
	if p.Sensitivity {
		if _, err := sw.finish(rep); err != nil {
			return nil, fmt.Errorf("sensitivity sweep on %s: %w", p.Arch.SM, err)
		}
	}
	return rep, nil
}
