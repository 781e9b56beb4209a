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
// handing it to Run.
type Plan struct {
	Arch gpu.Arch
	Opts scout.Options
	// Workload and Scale name a built-in workload (lowered by Build). The
	// re-execution passes need them too: recommendation pairs are
	// workload-keyed, and the sweep of a plan that arrived with its
	// Kernel already set lowers the workload itself.
	Workload string
	Scale    int
	// Verify and Sensitivity add the counterfactual re-runs and the
	// perturbation sweep on top of the finished report.
	Verify, Sensitivity bool
	// Kernel is the analyzed kernel and Run its launch harness. An
	// uploaded kernel arrives with Kernel set and no Run (static only).
	Kernel *sass.Kernel
	Run    scout.RunContextFunc

	// built is Build's lowering and, once Run ran with Sensitivity set,
	// that baseline run's recording: what the sweep replays.
	built *baseline
}

// baseline is the analyzed launch as a sweep needs it. It is shared by
// pointer so that the copy of a Plan that Run receives sees what the Run
// closure of the original recorded.
type baseline struct {
	w *workloads.Workload
	// recorded says a recording execution of w has run; rec is its
	// recording, nil when the launch is not replayable (sim.Record) and
	// every cell re-executes.
	recorded bool
	rec      *sim.Recording
}

// Build lowers the named workload for p.Arch, filling Kernel and — unless
// the plan is a dry run — Run. It is a no-op once Kernel is set: the
// daemon, which keys its cache on the canonical SASS, builds before it
// probes, and Run does not build again.
func (p *Plan) Build() error {
	if p.Kernel != nil {
		return nil
	}
	arch := p.Arch
	w, err := buildArch(p.Workload, p.Scale, arch)
	if err != nil {
		return err
	}
	b := &baseline{w: w}
	p.Kernel, p.built = w.Kernel, b
	if p.Opts.DryRun {
		return nil
	}
	p.Run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), cfg)
	}
	if p.Sensitivity {
		// The sweep times this very execution under each perturbation.
		p.Run = func(ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
			res, b.rec, err = workloads.RecordContext(ctx, w, sim.NewDevice(arch), cfg)
			b.recorded = err == nil
			return res, err
		}
	}
	return nil
}

// Outcome is what one Run produced. It is non-nil even when Run fails
// (Report is nil then), so the time spent up to the failure is recorded.
type Outcome struct {
	Report *scout.Report
	// Verified counts the verification verdicts (nil unless the plan
	// asked for them); the sweep's result is Report.Sensitivity.
	Verified *Summary
	// Analyze, Verify and Sweep are the wall time of each stage that ran.
	Analyze, Verify, Sweep time.Duration
}

// Run is the analyze → verify → sweep pipeline, the one place the three
// are sequenced. When ctx carries a deadline and stage budgets are on,
// the verify budget slice is derived here, once, from the time left at
// entry; verification and the sweep (both re-execution passes over the
// finished report) each get a slice of that size measured from their
// own start. An expired slice ships the remaining findings unverified or
// the remaining perturbations as ledger entries; the caller's deadline
// and an explicit cancel still abort with an error.
func Run(ctx context.Context, p Plan) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &Outcome{}
	if err := p.Build(); err != nil {
		return out, err
	}
	// budgeted derives one re-execution pass's context from the slice.
	budgeted := func() (context.Context, context.CancelFunc) { return ctx, func() {} }
	if deadline, ok := ctx.Deadline(); ok && !p.Opts.Budgets.Disabled {
		slice := p.Opts.Budgets.SliceOf(scout.StageVerify, time.Until(deadline))
		budgeted = func() (context.Context, context.CancelFunc) { return context.WithTimeout(ctx, slice) }
	}

	t := time.Now()
	rep, err := scout.AnalyzeContext(ctx, p.Arch, p.Kernel, p.Run, p.Opts)
	out.Analyze = time.Since(t)
	if err != nil {
		return out, err
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
		_, err = sweep(sctx, rep, p.built, p.Workload, p.Scale, p.Arch, p.Opts.Sim)
		out.Sweep = time.Since(t)
		cancel()
		if err != nil {
			return out, fmt.Errorf("sensitivity sweep on %s: %w", p.Arch.SM, err)
		}
	}
	out.Report = rep
	return out, nil
}
