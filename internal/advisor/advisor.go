// Package advisor is the counterfactual verification engine: where scout
// stops at "we recommend X", the advisor actually applies X. Every §4
// detector recommendation that has a hand-optimized twin among the case
// study workloads is mapped to that variant, the variant is re-executed
// through the simulator under the same configuration, and the measured
// speedup, stall shifts, and metric deltas are attached to the finding as
// a Verification block with a confirmed/neutral/refuted verdict. This
// reproduces the paper's §5 case-study loop (find -> fix -> measure) as
// an automated step, and goes one step past GPA's estimated speedups:
// the numbers are measurements of the fixed kernel, not projections.
package advisor

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/ncu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// Fault-injection sites: siteVerify covers one variant's build+run+collect,
// siteAttach covers attaching one finding's Verification block.
var (
	siteVerify = faultinject.Register("advisor.verify")
	siteAttach = faultinject.Register("advisor.attach")
)

// Pair maps one detector recommendation on a baseline workload to the
// optimized variant that implements it.
type Pair struct {
	// Workload is the baseline (naive) workload name.
	Workload string
	// Analysis is the detector whose recommendation the variant applies.
	Analysis string
	// Fixed is the optimized variant's workload name.
	Fixed string
	// Change describes the source-level difference.
	Change string
}

// pairs is the recommendation->variant table, ordered by baseline then
// analysis. Every entry re-states one of the paper's §5 find->fix steps.
var pairs = []Pair{
	{"histogram_global", "shared_atomics", "histogram_shared",
		"accumulate per-block histograms in __shared__ memory, flush to global once per block (§4.4)"},
	{"jacobi_naive", "readonly_cache", "jacobi_restrict",
		"mark the input plane const __restrict__ so loads issue as LDG.E.NC through the read-only cache (§4.5)"},
	{"jacobi_naive", "shared_memory", "jacobi_shared",
		"tile the stencil neighborhood (plus halo) into __shared__ memory once per block (§4.3, §5.2)"},
	{"jacobi_naive", "texture_memory", "jacobi_texture",
		"bind the input plane to a texture and sample it with tex2D (§4.6, §5.2)"},
	{"mixbench_dp_naive", "vectorized_load", "mixbench_dp_vec4",
		"load four elements per instruction with double2/float4-style vector accesses (§4.1, §5.1)"},
	{"mixbench_int_naive", "vectorized_load", "mixbench_int_vec4",
		"load four elements per instruction with int4 vector accesses (§4.1, §5.1)"},
	{"mixbench_sp_naive", "vectorized_load", "mixbench_sp_vec4",
		"load four elements per instruction with float4 vector accesses (§4.1, §5.1)"},
	{"reduction_atomic", "shared_atomics", "reduction_shfl",
		"reduce within the block via warp shuffles and shared memory; one global atomic per block (§4.4)"},
	{"sgemm_naive", "readonly_cache", "sgemm_restrict",
		"declare A and B const __restrict__: loads become LDG.E.NC and the no-alias guarantee lets the compiler batch them (§4.5)"},
	{"sgemm_naive", "shared_memory", "sgemm_shared",
		"stage 16x64 tiles of A and B in __shared__ memory and compute from the tiles (§4.3, §5.3)"},
	{"spill_pressure", "register_spilling", "spill_relief",
		"raise the register budget (drop -maxrregcount) so the accumulators stay in registers (§4.2)"},
	{"transpose_shared", "bank_conflicts", "transpose_padded",
		"pad the shared-memory tile stride by one element to break the 16-way bank conflict (§4.3)"},
}

// Pairs returns a copy of the recommendation->variant table, ordered by
// baseline workload then analysis.
func Pairs() []Pair {
	out := make([]Pair, len(pairs))
	copy(out, pairs)
	return out
}

// PairFor finds the optimized variant for a finding of the given analysis
// on the given baseline workload.
func PairFor(workload, analysis string) (Pair, bool) {
	for _, p := range pairs {
		if p.Workload == workload && p.Analysis == analysis {
			return p, true
		}
	}
	return Pair{}, false
}

// Summary reports what one verification pass measured.
type Summary struct {
	// Checked counts findings that had a paired optimized variant.
	Checked int
	// Confirmed/Neutral/Refuted count the verdicts.
	Confirmed int
	Neutral   int
	Refuted   int
}

// Add records one verdict.
func (s *Summary) Add(v scout.Verdict) {
	s.Checked++
	switch v {
	case scout.VerdictConfirmed:
		s.Confirmed++
	case scout.VerdictRefuted:
		s.Refuted++
	default:
		s.Neutral++
	}
}

// fixedRun is one executed optimized variant, shared by all findings that
// map to it.
type fixedRun struct {
	result  *sim.Result
	metrics *ncu.MetricSet
}

// Verify re-executes the paired optimized variant for every finding in
// the report that has one, under the same simulator configuration the
// analysis used, and attaches the measured Verification block to the
// finding. workload and scale identify the analyzed baseline; cfg must be
// the sim.Config of the original run so the comparison is like-for-like.
// ctx cancels long variant runs (each launch polls it).
//
// Findings without a paired variant are left untouched. A dry-run report
// cannot be verified: there is no baseline measurement to compare to.
func Verify(ctx context.Context, rep *scout.Report, workload string, scale int, arch gpu.Arch, cfg sim.Config) (*Summary, error) {
	return verify(ctx, newSlots(), rep, workload, scale, arch, cfg)
}

// verify is Verify with its variants in the job's slots.
func verify(ctx context.Context, slots slots, rep *scout.Report, workload string, scale int, arch gpu.Arch, cfg sim.Config) (*Summary, error) {
	if err := measured(rep, "verify"); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Pass 1: group findings by the variant they map to, collecting the
	// union of metric names each variant's collection must cover.
	needed := map[string][]string{} // fixed name -> metric names
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if p, ok := PairFor(workload, f.Analysis); ok {
			needed[p.Fixed] = appendUnique(appendUnique(needed[p.Fixed], f.RelevantMetrics...), f.CautionMetrics...)
		}
	}
	summary := &Summary{}
	if len(needed) == 0 {
		return summary, nil
	}

	// Pass 2: execute each distinct variant once, in sorted order, and
	// collect its metrics under rerun's rule: a failing or skipped variant
	// leaves only its findings unverified, recorded in the ledger.
	fixedNames := make([]string, 0, len(needed))
	for name := range needed {
		fixedNames = append(fixedNames, name)
	}
	sort.Strings(fixedNames)
	runs := make([]*fixedRun, len(fixedNames))
	p := &pass{ctx: ctx, site: siteVerify, skipped: "verify budget exhausted; paired findings ship unverified", lost: "unverified",
		n: len(fixedNames), per: 1, out: make([]outcome, len(fixedNames)), label: func(i int) string { return "variant " + fixedNames[i] },
		fn: func(ctx context.Context, i, _ int) (float64, error) {
			name := fixedNames[i]
			// The variant must be lowered for the same backend as the
			// baseline, or the comparison measures the arch, not the fix.
			w, err := workloads.BuildArch(name, scale, arch)
			if err != nil {
				return 0, fmt.Errorf("build variant: %w", err)
			}
			res, err := workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), cfg)
			if err != nil {
				return 0, fmt.Errorf("run variant %s: %w", name, err)
			}
			ms, err := ncu.Collector{Arch: arch}.Collect(
				ncu.Context{Kernel: w.Kernel, Result: res}, needed[name])
			if err != nil {
				return 0, fmt.Errorf("collect variant metrics %s: %w", name, err)
			}
			runs[i] = &fixedRun{result: res, metrics: ms}
			return 0, nil
		}}
	p.start(slots, 0)
	if err := p.wait(rep, nil); err != nil {
		return nil, err
	}

	// Pass 3: attach a Verification block to each paired finding, each
	// under its own guard — a panicking attach drops only that finding's
	// block.
	for i := range rep.Findings {
		f := &rep.Findings[i]
		p, ok := PairFor(workload, f.Analysis)
		if !ok {
			continue
		}
		run := runs[sort.SearchStrings(fixedNames, p.Fixed)]
		if run == nil {
			continue // variant failed or was skipped; already in the ledger
		}
		if err := scout.Guard(scout.StageVerify, siteAttach, func() error {
			if err := faultinject.Hit(siteAttach); err != nil {
				return err
			}
			v := &scout.Verification{
				Workload:       workload,
				Fixed:          p.Fixed,
				Change:         p.Change,
				BaselineCycles: rep.Result.Cycles,
				FixedCycles:    run.result.Cycles,
			}
			if run.result.Cycles > 0 {
				v.Speedup = rep.Result.Cycles / run.result.Cycles
			}
			v.Verdict = scout.Grade(v.Speedup)
			for _, st := range f.RelevantStalls {
				v.StallDeltas = append(v.StallDeltas, scout.StallDelta{
					Stall:  st.String(),
					Before: rep.Result.StallShare(st),
					After:  run.result.StallShare(st),
				})
			}
			for _, name := range appendUnique(appendUnique(nil, f.RelevantMetrics...), f.CautionMetrics...) {
				before, okB := rep.Metrics.Get(name)
				after, okA := run.metrics.Get(name)
				if !okB || !okA || before == after {
					continue
				}
				v.MetricDeltas = append(v.MetricDeltas, scout.MetricDelta{
					Name: name, Before: before, After: after,
				})
			}
			f.Verification = v
			summary.Add(v.Verdict)
			return nil
		}); err != nil {
			f.Verification = nil
			d := scout.DegradationFor(scout.StageVerify, siteAttach, err, false)
			d.Detail = fmt.Sprintf("finding %s (%s) unverified: %s", f.Analysis, p.Fixed, d.Detail)
			rep.Degradations = append(rep.Degradations, d)
		}
	}
	return summary, nil
}

// measured refuses a report with no baseline measurement.
func measured(rep *scout.Report, pass string) error {
	if rep == nil {
		return fmt.Errorf("advisor: nil report")
	}
	if rep.DryRun || rep.Result == nil {
		return fmt.Errorf("advisor: cannot %s a dry-run report (no baseline measurement)", pass)
	}
	return nil
}

// slots is one job's width, a semaphore of GOMAXPROCS: Run holds a slot
// while it records and analyses and every re-execution item takes one, so
// the baseline, the critical path, competes with at most GOMAXPROCS-1 items.
type slots chan struct{}

func newSlots() slots { return make(slots, runtime.GOMAXPROCS(0)) }

// pass is a re-execution pass — Verify's variants, the sweep's
// perturbations — as the independent items it is: cell i, named label(i),
// is per items, item j being fn(ctx, i, j) under rerun's rule. start may
// run item j of every cell before the others: a sweep starts an SM's
// items as the SM records.
type pass struct {
	ctx                 context.Context
	site, skipped, lost string
	n, per              int
	label               func(int) string
	fn                  func(ctx context.Context, i, j int) (float64, error)
	out                 []outcome // item j of cell i at i*per+j
	wg                  sync.WaitGroup
}

// outcome is what one item left: a value, a ledger entry or an abort.
type outcome struct {
	v     float64
	d     *scout.Degradation
	abort error
}

// start runs item j of every cell, each on a goroutine once it holds a
// slot; it does not block.
func (p *pass) start(s slots, j int) {
	for i := range p.n {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			s <- struct{}{}
			p.out[i*p.per+j] = p.rerun(i, j)
			<-s
		}()
	}
}

// wait returns once every item has exited, reducing the cells in order
// (the report is the same in any schedule): a cell is its first item's
// ledger entry, appended to rep, or the max of its items' values, handed
// to measure. The pass returns its lowest-index abort.
func (p *pass) wait(rep *scout.Report, measure func(i int, v float64)) error {
	p.wg.Wait()
	for i := range p.n {
		var d *scout.Degradation
		v := 0.0
		for _, o := range p.out[i*p.per : (i+1)*p.per] {
			if o.abort != nil {
				return o.abort
			}
			d, v = cmp.Or(d, o.d), max(v, o.v)
		}
		if d != nil {
			rep.Degradations = append(rep.Degradations, *d)
		} else if measure != nil {
			measure(i, v)
		}
	}
	return nil
}

// rerun is item j of cell i under the rule both passes share. It starts
// only if its budget (ctx deadline) has not expired, else it is skipped
// into a ledger entry: the report ships without it rather than the job
// timing out. fn runs behind the site's panic guard and, for item 0, its
// fault hook; a failing or crashing item — one ended by its own ctx poll
// when the budget expires mid-flight included — loses only itself,
// classified into its entry. An explicit cancel is an error: it aborts.
func (p *pass) rerun(i, j int) (o outcome) {
	if err := p.ctx.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			return outcome{abort: fmt.Errorf("advisor: %w", err)}
		}
		return outcome{d: &scout.Degradation{Stage: scout.StageVerify, Site: p.site, Kind: scout.DegradeTimeout,
			Detail: fmt.Sprintf("%s skipped: %s", p.label(i), p.skipped)}}
	}
	err := scout.Guard(scout.StageVerify, p.site, func() (err error) {
		if j == 0 {
			err = faultinject.Hit(p.site)
		}
		if err == nil {
			o.v, err = p.fn(p.ctx, i, j)
		}
		return err
	})
	switch {
	case err == nil:
		return o
	case errors.Is(err, context.Canceled) && p.ctx.Err() != nil:
		return outcome{abort: fmt.Errorf("advisor: %w", err)}
	}
	d := scout.DegradationFor(scout.StageVerify, p.site, err, p.ctx.Err() != nil)
	d.Detail = fmt.Sprintf("%s %s: %s", p.label(i), p.lost, d.Detail)
	return outcome{d: &d}
}

// appendUnique appends the names not already present, preserving order.
func appendUnique(dst []string, names ...string) []string {
	for _, n := range names {
		if !slices.Contains(dst, n) {
			dst = append(dst, n)
		}
	}
	return dst
}
