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
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
	if rep == nil {
		return nil, fmt.Errorf("advisor: nil report")
	}
	if rep.DryRun || rep.Result == nil {
		return nil, fmt.Errorf("advisor: cannot verify a dry-run report (no baseline measurement)")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Pass 1: group findings by the variant they map to, collecting the
	// union of metric names each variant's collection must cover.
	needed := map[string][]string{} // fixed name -> metric names
	matched := false
	for i := range rep.Findings {
		f := &rep.Findings[i]
		p, ok := PairFor(workload, f.Analysis)
		if !ok {
			continue
		}
		matched = true
		needed[p.Fixed] = appendUnique(needed[p.Fixed], f.RelevantMetrics...)
		needed[p.Fixed] = appendUnique(needed[p.Fixed], f.CautionMetrics...)
	}
	summary := &Summary{}
	if !matched {
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
	if err := rerunAll(ctx, rep, siteVerify, "verify budget exhausted; paired findings ship unverified", "unverified", len(fixedNames),
		func(i int) string { return "variant " + fixedNames[i] }, func(i int) error {
			name := fixedNames[i]
			// The variant must be lowered for the same backend as the
			// baseline, or the comparison measures the arch, not the fix.
			w, err := workloads.BuildArch(name, scale, arch)
			if err != nil {
				return fmt.Errorf("build variant: %w", err)
			}
			res, err := workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), cfg)
			if err != nil {
				return fmt.Errorf("run variant %s: %w", name, err)
			}
			ms, err := ncu.Collector{Arch: arch}.Collect(
				ncu.Context{Kernel: w.Kernel, Result: res}, needed[name])
			if err != nil {
				return fmt.Errorf("collect variant metrics %s: %w", name, err)
			}
			runs[i] = &fixedRun{result: res, metrics: ms}
			return nil
		}); err != nil {
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

// rerunAll runs a re-execution pass — Verify's variants, the sweep's
// perturbations — as the n independent items it is: item i, named
// label(i), is fn(i) under rerun's rule and fills a result slot of its
// own. Items run on min(GOMAXPROCS, n) goroutines taking indices from one
// counter (sim's engine recipe one level up); once every worker has
// exited, the ledger is appended to rep in item order, so the report is
// the same at any width. An abort means ctx is done, so later items end
// at rerun's first check; the pass returns the lowest-index abort.
func rerunAll(ctx context.Context, rep *scout.Report, site, skipped, lost string, n int, label func(int) string, fn func(int) error) error {
	ledger := make([]*scout.Degradation, n)
	aborts := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				ledger[i], aborts[i] = rerun(ctx, site, label(i), skipped, lost, func() error { return fn(i) })
			}
		}()
	}
	wg.Wait()
	for i, d := range ledger {
		if aborts[i] != nil {
			return aborts[i]
		}
		if d != nil {
			rep.Degradations = append(rep.Degradations, *d)
		}
	}
	return nil
}

// rerun runs one item of a re-execution pass under the rule both passes
// share. An item starts only if its budget (ctx deadline) has not
// expired, else it is skipped into a ledger entry: the report ships
// without it rather than the job timing out. fn runs behind the site's
// fault hook and panic guard; a failing or crashing item — one ended by
// its own ctx poll when the budget expires mid-flight included — loses
// only itself, classified into its entry. label names the item, skipped
// and lost are the loss texts. An explicit cancel is an error: it aborts.
func rerun(ctx context.Context, site, label, skipped, lost string, fn func() error) (*scout.Degradation, error) {
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("advisor: %w", err)
		}
		return &scout.Degradation{
			Stage: scout.StageVerify, Site: site, Kind: scout.DegradeTimeout,
			Detail: fmt.Sprintf("%s skipped: %s", label, skipped),
		}, nil
	}
	err := scout.Guard(scout.StageVerify, site, func() error {
		if err := faultinject.Hit(site); err != nil {
			return err
		}
		return fn()
	})
	if err == nil {
		return nil, nil
	}
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		return nil, fmt.Errorf("advisor: %w", err)
	}
	d := scout.DegradationFor(scout.StageVerify, site, err, ctx.Err() != nil)
	d.Detail = fmt.Sprintf("%s %s: %s", label, lost, d.Detail)
	return &d, nil
}

// appendUnique appends the names not already present, preserving order.
func appendUnique(dst []string, names ...string) []string {
	for _, n := range names {
		dup := false
		for _, have := range dst {
			if have == n {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, n)
		}
	}
	return dst
}
