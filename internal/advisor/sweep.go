package advisor

import (
	"context"
	"fmt"
	"sync"

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
// the max over the sampled SMs of their finish under the perturbed arch
// (Recording.Finish): a replay unless the recording proves the SM inert —
// every shared access costs as before on the new bank count, or no set of
// the old or new cache geometry holds more of its lines than it has ways.
// An SM proved to replay as its twin (Recording.Twin), an SM sealed before
// it, adds no value: the twin's item is the same finish. A launch that is
// not replayable executes every cell.
// workload/scale/arch/cfg must match the analyzed run, exactly as for
// Verify: a recording execution that does not reproduce the report's
// cycle count is an error. A dry-run report cannot be swept (no baseline
// measurement). A failing perturbation run drops only its own matrix
// entry, recorded in the degradation ledger; an expired deadline skips
// the remaining entries the same way, while an explicit cancellation
// aborts the pass.
func Sweep(ctx context.Context, rep *scout.Report, workload string, scale int, arch gpu.Arch, cfg sim.Config) (*scout.Sensitivity, error) {
	if err := measured(rep, "sweep"); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &sweeper{slots: newSlots(), arch: arch, cfg: cfg,
		budgeted: func() (context.Context, context.CancelFunc) { return context.WithCancel(ctx) }}
	defer s.stop()
	// One lowering and one execution serve the whole matrix (see
	// gpu.Perturbation.Apply), made here under the site's panic guard: a
	// failing build or recording fails every cell the same way, one
	// ledger entry per perturbation.
	var res *sim.Result
	s.slots <- struct{}{}
	if err := scout.Guard(scout.StageVerify, siteSweep, func() error {
		if s.w, s.baseErr = buildArch(workload, scale, arch); s.baseErr == nil {
			res, s.baseErr = s.record(ctx)
		}
		return nil
	}); err != nil {
		s.baseErr = err
	}
	<-s.slots
	if s.baseErr == nil && res.Cycles != rep.Result.Cycles {
		return nil, fmt.Errorf("advisor: sweep of %s@%d on %s ran %v cycles unperturbed, the report measured %v: not the analyzed run",
			workload, scale, arch.SM, res.Cycles, rep.Result.Cycles)
	}
	return s.finish(rep)
}

// sweeper is one sweep in flight, from the baseline's execution to the
// attached matrix; a baseline that ends unrecorded discards the items its
// SMs started and executes each cell whole instead.
type sweeper struct {
	slots    slots
	budgeted func() (context.Context, context.CancelFunc) // the pass's context
	arch     gpu.Arch
	cfg      sim.Config
	w        *workloads.Workload
	rec      *sim.Recording // the baseline's, once it ended recorded
	baseErr  error          // why there is no lowering or recording

	once   sync.Once
	p      *pass
	cancel context.CancelFunc
	end    func() // the pass's clock
}

// record executes the baseline under ctx, recorded, and starts SM j's
// item of every cell as soon as SM j finishes.
func (s *sweeper) record(ctx context.Context) (res *sim.Result, err error) {
	ctx = sim.WithRecorded(ctx, func(rec *sim.Recording, j int) {
		s.once.Do(func() { s.begin(rec) })
		s.p.start(s.slots, j)
	})
	res, s.rec, err = workloads.RecordContext(ctx, s.w, sim.NewDevice(s.arch), s.cfg)
	return res, err
}

// begin sets up the pass under its budget and clock: a cell is one item
// per SM of rec, or one execution without it.
func (s *sweeper) begin(rec *sim.Recording) {
	ctx, cancel := s.budgeted()
	s.cancel, s.end = cancel, scout.Time(ctx, scout.TimeSweep)
	perts, per := gpu.Perturbations(), 1
	if rec != nil {
		per = rec.SMs()
	}
	s.p = &pass{ctx: ctx, site: siteSweep, skipped: "sweep budget exhausted", lost: "missing from sweep", n: len(perts), per: per,
		out: make([]outcome, len(perts)*per), label: func(i int) string { return "perturbation " + perts[i].ID() },
		fn: func(ctx context.Context, i, j int) (cycles float64, err error) {
			p, pa := perts[i], perts[i].Apply(s.arch)
			switch {
			case rec != nil && rec.Twin(pa, j) != j:
				return 0, nil // the twin's item measures this SM's finish
			case rec != nil:
				cycles, _, err = rec.Finish(ctx, pa, j)
			case s.baseErr != nil:
				return 0, fmt.Errorf("build under %s: %w", p.ID(), s.baseErr)
			default:
				var res *sim.Result
				if res, err = workloads.ExecuteContext(ctx, s.w, sim.NewDevice(pa), s.cfg); err == nil {
					cycles = res.Cycles
				}
			}
			if err != nil {
				return 0, fmt.Errorf("run under %s: %w", p.ID(), err)
			}
			return cycles, nil
		}}
}

// stop cancels the pass and waits for its items, dropping what they
// measured.
func (s *sweeper) stop() {
	if s.p != nil {
		s.cancel()
		s.p.wg.Wait()
	}
}

// finish waits for the cells — first starting them, each one execution,
// when the baseline ended unrecorded — and attaches the matrix to rep.
func (s *sweeper) finish(rep *scout.Report) (*scout.Sensitivity, error) {
	if err := measured(rep, "sweep"); err != nil {
		return nil, err
	}
	if s.rec == nil {
		s.stop()
		s.begin(nil)
		s.p.start(s.slots, 0)
	}
	defer s.end()
	sens := &scout.Sensitivity{BaselineCycles: rep.Result.Cycles}
	perts := gpu.Perturbations()
	if err := s.p.wait(rep, func(i int, cycles float64) {
		p := perts[i]
		sens.Deltas = append(sens.Deltas, scout.ResourceDelta{Resource: p.Resource, Direction: p.Direction, Factor: p.Factor,
			Cycles: cycles, Delta: cycles - sens.BaselineCycles, Helps: p.Helps})
	}); err != nil {
		return nil, err
	}
	sens.Rank()
	rep.AttachSensitivity(sens)
	return sens, nil
}
