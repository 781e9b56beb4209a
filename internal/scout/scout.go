package scout

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"gpuscout/internal/cupti"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/ncu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// AllAnalysesFor returns the §4 detector set parameterized by the
// target architecture's descriptor tables (shared-memory bank count
// today; any future detector knob belongs here too).
func AllAnalysesFor(arch gpu.Arch) []Analysis {
	return []Analysis{
		VectorLoadAnalysis{},                          // §4.1
		RegSpillAnalysis{},                            // §4.2
		SharedMemAnalysis{},                           // §4.3
		SharedAtomicAnalysis{},                        // §4.4
		ReadOnlyAnalysis{},                            // §4.5
		TextureAnalysis{},                             // §4.6
		DtypeConvAnalysis{},                           // §4.7
		BankConflictAnalysis{Banks: arch.SharedBanks}, // added analysis (§7: modular extension)
	}
}

// Options configure one GPUscout run.
type Options struct {
	// DryRun restricts the run to the static SASS analysis — no GPU
	// involvement, no warp stalls, no metrics (§3.1). It also is the only
	// mode available on architectures ncu does not support.
	DryRun bool
	// SamplingPeriod is the CUPTI PC sampling period in cycles
	// (default 2048).
	SamplingPeriod float64
	// Sim configures the simulated launches.
	Sim sim.Config
	// StallSlices attaches a backward def-use slice to each finding: the
	// producer chain from address arithmetic through the load to the
	// stalled consumer at the finding's highest-stall PC (LEO-style).
	// Needs the dynamic pillars, so it is ignored in --dry-run.
	StallSlices bool
}

// RunContextFunc launches the kernel once and returns the simulation
// result. GPUscout invokes it for the dynamic pillars; the static pillar
// never needs it. Implementations should forward ctx into
// sim.LaunchContext so that aborting the analysis actually interrupts
// the simulated launch.
type RunContextFunc func(ctx context.Context, cfg sim.Config) (*sim.Result, error)

// AnalyzeContext performs the full GPUscout workflow (§3.1) on one
// kernel: static code instrumentation, dynamic data collection (PC
// sampling and ncu metrics, unless DryRun), and data evaluation — with
// cancellation and fault tolerance: the context deadline (when present)
// is split into per-stage budgets, every stage runs under a panic guard,
// and failures degrade the report — recorded in Report.Degradations —
// instead of abandoning it. A parse failure is still fatal (there is
// nothing to report on); a failing or slow dynamic pillar falls back to
// the static-only report; a panicking detector drops only its own
// findings.
func AnalyzeContext(ctx context.Context, arch gpu.Arch, k *sass.Kernel, run RunContextFunc, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scout: %w", err)
	}
	// Every stage's slice is a share of the time left at entry.
	parseSlice, sliced := StageSlice(ctx, StageParse)
	scoutSlice, _ := StageSlice(ctx, StageScout)
	simSlice, _ := StageSlice(ctx, StageSim)

	// --- Pillar 1: static SASS analysis. ---
	start := time.Now()
	var staticDeadline time.Time
	if sliced {
		staticDeadline = start.Add(parseSlice + scoutSlice)
	}
	var view *KernelView
	if err := Guard(StageParse, siteParse, func() error {
		if err := faultinject.Hit(siteParse); err != nil {
			return err
		}
		v, err := NewKernelView(k)
		if err != nil {
			return err
		}
		view = v
		return nil
	}); err != nil {
		return nil, err
	}

	rep := &Report{
		Kernel: k.Name,
		Arch:   k.Arch,
		DryRun: opts.DryRun || run == nil,
		kernel: k,
		view:   view,
	}

	// Per-detector isolation: a panicking detector loses its own findings
	// and nothing else; once the static budget is spent, the remaining
	// detectors are skipped, each loss named in the ledger.
	for _, a := range AllAnalysesFor(arch) {
		site := DetectorSite(a.Name())
		if !staticDeadline.IsZero() && time.Now().After(staticDeadline) {
			rep.Degradations = append(rep.Degradations, Degradation{
				Stage: StageScout, Site: site, Kind: DegradeTimeout,
				Detail: "detector skipped: static-stage budget exhausted",
			})
			continue
		}
		var found []Finding
		if err := Guard(StageScout, site, func() error {
			if err := faultinject.Hit(site); err != nil {
				return err
			}
			found = a.Detect(view)
			return nil
		}); err != nil {
			rep.Degradations = append(rep.Degradations, DegradationFor(StageScout, site, err, false))
			continue
		}
		rep.Findings = append(rep.Findings, found...)
	}
	rep.OverheadSASSCycles = time.Since(start).Seconds() * arch.ClockGHz * 1e9

	if rep.DryRun {
		sortFindings(rep.Findings)
		return rep, nil
	}

	// --- Pillars 2+3 under the sim budget slice, filling a copy of the
	// static report. Any failure here — panic, error, or the slice
	// expiring — ships the static report itself, the --dry-run report
	// plus a ledger entry, rather than surfacing an empty timeout, unless
	// the *job* context itself is done (then the caller's deadline
	// governs).
	simCtx, cancel := ctx, context.CancelFunc(func() {})
	if sliced {
		simCtx, cancel = context.WithTimeout(ctx, simSlice)
	}
	dyn := *rep
	err := runDynamicPillars(simCtx, arch, k, run, opts, &dyn)
	sliceExpired := simCtx.Err() != nil // read before cancel() makes it true
	cancel()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("scout: %w", ctxErr)
		}
		rep.DryRun = true
		rep.Degradations = append(rep.Degradations,
			DegradationFor(StageSim, "sim.launch", err, sliceExpired))
		sortFindings(rep.Findings)
		return rep, nil
	}

	// --- Data evaluation: correlate stalls and metrics per finding. A
	// correlation failure reverts that one finding to its static copy.
	rep = &dyn
	static := slices.Clone(rep.Findings)
	for fi := range rep.Findings {
		f := &rep.Findings[fi]
		if err := Guard(StageScout, siteCorrelate, func() error {
			if err := faultinject.Hit(siteCorrelate); err != nil {
				return err
			}
			correlate(f, rep)
			return nil
		}); err != nil {
			*f = static[fi]
			rep.Degradations = append(rep.Degradations, DegradationFor(StageScout, siteCorrelate, err, false))
		}
		if opts.StallSlices {
			if err := Guard(StageScout, siteSlice, func() error {
				if err := faultinject.Hit(siteSlice); err != nil {
					return err
				}
				f.StallSlices = stallSlices(f, rep)
				return nil
			}); err != nil {
				f.StallSlices = nil
				rep.Degradations = append(rep.Degradations, DegradationFor(StageScout, siteSlice, err, false))
			}
		}
	}
	sortFindings(rep.Findings)
	return rep, nil
}

// runDynamicPillars executes the warp-stall sampling and metric
// collection pillars, filling rep on success. Each step runs under its
// own guard so the returned error names the failing site.
func runDynamicPillars(ctx context.Context, arch gpu.Arch, k *sass.Kernel, run RunContextFunc, opts Options, rep *Report) error {
	// --- Pillar 2: warp-stall sampling (CUPTI). ---
	var res *sim.Result
	if err := Guard(StageSim, "sim.launch", func() error {
		r, err := run(ctx, opts.Sim)
		if err != nil {
			return err
		}
		res = r
		return ctx.Err()
	}); err != nil {
		return err
	}
	if err := Guard(StageSim, "cupti.collect", func() error {
		samples, err := cupti.Collect(k, res, cupti.Config{PeriodCycles: opts.SamplingPeriod})
		if err != nil {
			return err
		}
		rep.Samples = samples
		return nil
	}); err != nil {
		return err
	}
	rep.Result = res
	rep.KernelCycles = res.Cycles
	rep.AchievedOccupancy = res.AchievedOccupancy
	rep.StallShares = map[sim.Stall]float64{}
	for s := range res.Counters.StallCycles {
		if share := res.StallShare(sim.Stall(s)); share > 0 {
			rep.StallShares[sim.Stall(s)] = share
		}
	}
	// The "where should I look first" list: the ten hottest lines.
	hot := rep.lineHeats()
	sort.Slice(hot, func(i, j int) bool { return hot[i].Samples > hot[j].Samples })
	rep.HottestLines = hot[:min(len(hot), 10)]
	rep.Overhead = &Overhead{Sampling: cupti.CollectionCycles(res)}

	// --- Pillar 3: kernel-wide metrics (ncu). ---
	// "The number of collected metrics is kept to minimum" (§3): only the
	// metrics the findings reference, plus a small base set.
	names := baseMetrics()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for fi := range rep.Findings {
		for _, n := range append(append([]string{}, rep.Findings[fi].RelevantMetrics...), rep.Findings[fi].CautionMetrics...) {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return Guard(StageSim, "ncu.collect", func() error {
		ms, err := ncu.Collector{Arch: arch}.Collect(ncu.Context{Kernel: k, Result: res}, names)
		if err != nil {
			return err
		}
		rep.Metrics = ms
		rep.Overhead.Metrics = ms.OverheadCycles
		return nil
	})
}

// baseMetrics is the always-collected minimum set: the kernel-wide data
// movement summary of §3.2.
func baseMetrics() []string {
	return []string{
		"gpu__time_duration.sum",
		"sm__cycles_elapsed.max",
		"launch__registers_per_thread",
		"sm__warps_active.avg.pct_of_peak_sustained_active",
		"sm__maximum_warps_per_active_cycle_pct",
		"smsp__inst_executed.sum",
		"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum",
		"l1tex__t_sectors_pipe_lsu_mem_global_op_st.sum",
		"l1tex__t_sector_pipe_lsu_mem_global_op_ld_hit_rate.pct",
		"lts__t_sectors.sum",
		"lts__t_sector_hit_rate.pct",
		"dram__bytes_read.sum",
		"dram__bytes_write.sum",
	}
}

// correlate fills a finding's stall summary, metric summary and severity
// from the dynamic pillars.
func correlate(f *Finding, rep *Report) {
	// Warp stalls at the finding's sites, aggregated by line. Stalls
	// surface at the *dependent* instruction (the consumer waiting on the
	// scoreboard), so the correlation includes the lines that consume the
	// flagged instructions' results.
	seenLines := map[int]bool{}
	for _, s := range f.Sites {
		idx := int(s.PC / sass.InstBytes)
		if rep.view != nil && idx < len(rep.view.Kernel.Insts) {
			in := &rep.view.Kernel.Insts[idx]
			for _, r := range in.DstRegs(nil) {
				for _, u := range rep.view.DefUse.UsesAfter(r, idx) {
					if l := rep.view.Kernel.Insts[u].Line; l > 0 {
						seenLines[l] = false // consumer line: counted, not listed
					}
				}
			}
		}
	}
	var relevantShare float64
	for _, s := range f.Sites {
		if _, dup := seenLines[s.Line]; dup && seenLines[s.Line] {
			continue
		}
		seenLines[s.Line] = true
		agg := rep.Samples.AtLine(s.Line)
		for _, st := range agg.Top(3) {
			f.StallSummary = append(f.StallSummary, fmt.Sprintf(
				"line %d: %s — %.1f%% of stall samples at this line (%s)",
				s.Line, st, 100*(agg[st]/agg.Exposed()), st.Explain()))
		}
	}
	// Relevance: how much of the kernel's stalls are of the kinds this
	// finding points at, at these lines.
	// Summed in line order, not map order: float addition does not
	// associate, and the report must be byte-identical on every run.
	var atSites float64
	for _, line := range sortedKeys(seenLines) {
		agg := rep.Samples.AtLine(line)
		for _, st := range f.RelevantStalls {
			atSites += agg[st]
		}
	}
	if total := rep.Samples.Kernel.Stalled(); total > 0 {
		relevantShare = atSites / total
	}
	switch {
	case relevantShare >= 0.20:
		f.Severity = SeverityCritical
	case relevantShare >= 0.02:
		f.Severity = SeverityWarning
	default:
		if f.Severity < SeverityInfo {
			f.Severity = SeverityInfo
		}
	}
	f.StallSummary = append(f.StallSummary, fmt.Sprintf(
		"relevant stalls (%s) at the flagged lines account for %.1f%% of all kernel stall samples",
		stallList(f.RelevantStalls), 100*relevantShare))

	f.RelevantStallShare = relevantShare
	f.EstSpeedup = stallCeiling(relevantShare, rep.Result)

	// Metric analysis.
	f.MetricSummary = metricSummary(f, rep)
}

// stallCeiling is the GPA-style payoff ceiling: if every stall a finding
// attributes vanished, the kernel could at best run 1/(1-frac)x faster,
// where frac is the finding's share of stalls scaled by how much of the
// issue opportunity stalls actually cost (Amdahl over exposed stall
// cycles). AttachSensitivity widens it with measured headroom.
func stallCeiling(relevantShare float64, res *sim.Result) float64 {
	frac := relevantShare * exposedStallFraction(res)
	if frac > 0.95 {
		frac = 0.95
	}
	return 1 / (1 - frac)
}

// AttachSensitivity attaches a finished sweep to the report: the full
// matrix on the report, on each finding the view filtered to the
// resources its bottleneck class can involve, and each payoff estimate
// widened by that view's measured headroom — the stall-based ceiling
// says how much of the kernel the finding touches; the dominant
// resource's relief says how much a real fix in that class actually
// buys. The widening starts from the ceiling, not from whatever the
// finding holds, so sweeping a swept report changes nothing. Findings
// are re-sorted by the updated payoff.
func (r *Report) AttachSensitivity(s *Sensitivity) {
	r.Sensitivity = s
	for i := range r.Findings {
		f := &r.Findings[i]
		f.Sensitivity = s.FilterFor(f.Analysis)
		if f.EstSpeedup == 0 {
			continue // correlate failed on this finding: it stays unpriced
		}
		f.EstSpeedup = stallCeiling(f.RelevantStallShare, r.Result)
		if headroom := f.Sensitivity.DominantRelief - 1; f.Sensitivity.Dominant != "" && headroom > 0 {
			f.EstSpeedup *= 1 + headroom
		}
	}
	sortFindings(r.Findings)
}

// exposedStallFraction is the fraction of issue opportunities lost to
// stalls: exposed stall cycles / (exposed stall cycles + issued cycles).
// not_selected is excluded — another warp was issuing, so no latency was
// exposed.
func exposedStallFraction(res *sim.Result) float64 {
	if res == nil {
		return 0
	}
	exposed := res.Counters.StallCycles.Exposed()
	denom := exposed + res.Counters.StallCycles[sim.StallSelected]
	if denom == 0 {
		return 0
	}
	return exposed / denom
}

func stallList(ss []sim.Stall) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s.String()
	}
	return out
}

// sortedKeys returns m's keys in ascending order: a report sums and lists
// in this order, never in map order, so it is byte-identical every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// MetricLines is what a detector's derived-metric formula (§2.3, §4.2,
// §4.3) reads — the collected metrics, the launch result, the sector
// size — and the summary lines it appends to.
type MetricLines struct {
	rep *Report
	// secB is the L1 sector size of the report's architecture (32 B on
	// Volta, wider on Ampere-class targets).
	secB  float64
	lines []string
}

func (m *MetricLines) add(format string, args ...interface{}) {
	m.lines = append(m.lines, fmt.Sprintf(format, args...))
}

func (m *MetricLines) val(name string) float64 {
	v, _ := m.rep.Metrics.Get(name)
	return v
}

// metricSummary renders the per-finding metric analysis: the finding's
// relevant metrics, then its detector's derived formula.
func metricSummary(f *Finding, rep *Report) []string {
	m := &MetricLines{rep: rep, secB: 32}
	if a, err := gpu.ByName(rep.Arch); err == nil && a.L1SectorBytes > 0 {
		m.secB = float64(a.L1SectorBytes)
	}
	for _, name := range f.RelevantMetrics {
		if d, ok := ncu.Lookup(name); ok {
			m.add("%s = %.6g %s (%s)", name, m.val(name), d.Unit, d.Description)
		}
	}
	if derive := detectors[f.Analysis].DerivedMetrics; derive != nil {
		derive(m)
	}
	return m.lines
}
