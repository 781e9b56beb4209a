package advisor

import (
	"context"
	"fmt"
	"time"

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

// baseline is the analyzed launch as a sweep needs it: the lowered
// workload and the recording of its execution — nil when the launch is
// not replayable (sim.Record) and every cell re-executes.
type baseline struct {
	w   *workloads.Workload
	rec *sim.Recording
}

// Outcome is what one Run produced. It is non-nil even when Run fails
// (Report is nil then), so the time spent up to the failure is recorded.
type Outcome struct {
	Report *scout.Report
	// Verified counts the verification verdicts (nil unless the plan
	// asked for them); the sweep's result is Report.Sensitivity.
	Verified *Summary
	// Build, Analyze, Verify and Sweep are the wall time of each stage
	// that ran (Build: lowering the workload; zero for an upload).
	Build, Analyze, Verify, Sweep time.Duration
	// Fallback is set when the dynamic pillars failed and the report fell
	// back to static: the requested verify and sweep were skipped.
	Fallback bool
}

// Run is the lower → analyze → verify → sweep pipeline, the one place
// the four are sequenced and the only place a workload is lowered — under
// a parse-stage guard, so a crash in codegen is a typed StageError. When
// ctx carries a deadline, the verify budget slice is derived here, once,
// from the time left at entry; verification and the sweep (both
// re-execution passes over the finished report) each get a slice of that
// size measured from their own start. An expired slice ships the
// remaining findings unverified or the remaining perturbations as ledger
// entries; the caller's deadline and an explicit cancel still abort with
// an error.
func Run(ctx context.Context, p Plan) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &Outcome{}
	kernel := p.Kernel
	var run scout.RunContextFunc
	var base *baseline
	if kernel == nil {
		base = &baseline{}
		t := time.Now()
		err := scout.Guard(scout.StageParse, "advisor.lower", func() (err error) {
			base.w, err = buildArch(p.Workload, p.Scale, p.Arch)
			return err
		})
		out.Build = time.Since(t)
		if err != nil {
			return out, err
		}
		kernel = base.w.Kernel
		if !p.Opts.DryRun {
			// With Sensitivity the sweep times this very execution under
			// each perturbation, so it is recorded.
			run = func(ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
				if !p.Sensitivity {
					return workloads.ExecuteContext(ctx, base.w, sim.NewDevice(p.Arch), cfg)
				}
				res, base.rec, err = workloads.RecordContext(ctx, base.w, sim.NewDevice(p.Arch), cfg)
				return res, err
			}
		}
	}
	// budgeted derives one re-execution pass's context from the slice.
	budgeted := func() (context.Context, context.CancelFunc) { return ctx, func() {} }
	if slice, ok := scout.StageSlice(ctx, scout.StageVerify); ok {
		budgeted = func() (context.Context, context.CancelFunc) { return context.WithTimeout(ctx, slice) }
	}

	t := time.Now()
	rep, err := scout.AnalyzeContext(ctx, p.Arch, kernel, run, p.Opts)
	out.Analyze = time.Since(t)
	if err != nil {
		return out, err
	}
	if out.Fallback = rep.DryRun && !p.Opts.DryRun; out.Fallback {
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
		t := time.Now()
		out.Verified, err = Verify(vctx, rep, p.Workload, p.Scale, p.Arch, p.Opts.Sim)
		out.Verify = time.Since(t)
		cancel()
		if err != nil {
			return out, fmt.Errorf("verify on %s: %w", p.Arch.SM, err)
		}
	}
	if p.Sensitivity {
		sctx, cancel := budgeted()
		t := time.Now()
		_, err = sweep(sctx, rep, base, p.Workload, p.Scale, p.Arch, p.Opts.Sim)
		out.Sweep = time.Since(t)
		cancel()
		if err != nil {
			return out, fmt.Errorf("sensitivity sweep on %s: %w", p.Arch.SM, err)
		}
	}
	out.Report = rep
	return out, nil
}
