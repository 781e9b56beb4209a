// Package scout is the GPUscout core: it connects the three analysis
// pillars of the paper — static SASS analysis, warp-stall sampling, and
// kernel-wide metrics (§3) — runs the §4 bottleneck detectors, and renders
// the text report (Figures 2 and 5).
package scout

import (
	"fmt"
	"sort"

	"gpuscout/internal/cupti"
	"gpuscout/internal/ncu"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// Severity grades how much a finding is expected to matter, judged from
// the correlated stalls and metrics (the "assess its importance" part of
// the paper's abstract).
type Severity int

const (
	// SeverityInfo is informational (pattern present, low measured impact).
	SeverityInfo Severity = iota
	// SeverityWarning indicates measurable impact worth investigating.
	SeverityWarning
	// SeverityCritical indicates the bottleneck dominates kernel stalls.
	SeverityCritical
)

func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "INFO"
	case SeverityWarning:
		return "WARNING"
	default:
		return "CRITICAL"
	}
}

// Site is one code location a finding points at: the paper's promise is
// that "the problem description and source code line number are always
// attached".
type Site struct {
	PC   uint64 `json:"pc"`
	File string `json:"file"`
	Line int    `json:"line"`
	// SASS is the disassembled instruction at PC.
	SASS string `json:"sass"`
	// Note carries site-specific detail ("register R9", "inside a
	// for-loop", "spilled by IADD at line 7", ...).
	Note string `json:"note,omitempty"`
}

// Finding is one detected (potential) bottleneck.
type Finding struct {
	// Analysis names the detector, e.g. "vectorized_load".
	Analysis string
	// Title is the one-line recommendation headline.
	Title string
	// Problem explains the detected pattern.
	Problem string
	// Recommendation tells the user what change to consider.
	Recommendation string
	// Sites are the code locations involved, in program order.
	Sites []Site
	// InLoop reports whether the pattern sits inside a loop, which
	// amplifies it (§4.3, §4.4).
	InLoop bool
	// RelevantStalls lists the stall reasons to inspect for this finding
	// (correlated by the Warp Stalls pillar).
	RelevantStalls []sim.Stall
	// RelevantMetrics lists ncu metric names that assess the finding.
	RelevantMetrics []string
	// CautionMetrics lists metrics to watch after applying the fix
	// (e.g. register pressure after vectorizing, MIO stalls after
	// switching to shared atomics).
	CautionMetrics []string

	// Filled by the dynamic pillars (empty in --dry-run):
	Severity Severity
	// StallSummary lines describe the dominant stalls at the sites.
	StallSummary []string
	// MetricSummary lines present the metric analysis.
	MetricSummary []string

	// Verification is the measured counterfactual evidence for the
	// recommendation, attached by the advisor when the analysis ran with
	// verification enabled and an optimized variant is paired with this
	// finding (nil otherwise).
	Verification *Verification

	// RelevantStallShare is the fraction of all kernel stall samples that
	// are of this finding's relevant kinds at its flagged lines (the
	// attribution correlate computes; 0 in --dry-run).
	RelevantStallShare float64
	// EstSpeedup is the GPA-style modeled payoff ceiling: how much faster
	// the kernel could run if this finding's stalls were eliminated,
	// widened by measured sensitivity headroom when a sweep ran. Reports
	// are ordered by it (0 in --dry-run; ≥1 otherwise).
	EstSpeedup float64
	// Sensitivity is this finding's view of the microarchitectural sweep:
	// the perturbed re-simulations of the resources its bottleneck class
	// can be bound by (nil unless the advisor ran a sweep).
	Sensitivity *Sensitivity
	// StallSlices are the backward producer chains explaining the
	// highest-stall PCs at this finding's sites (nil unless the run asked
	// for slices).
	StallSlices []StallSlice
}

// PrimaryLine returns the first site's source line (0 when none).
func (f *Finding) PrimaryLine() int {
	if len(f.Sites) == 0 {
		return 0
	}
	return f.Sites[0].Line
}

// sortFindings orders findings by modeled payoff (GPA-style: estimated
// speedup, descending), then severity, then first PC. Dry-run reports
// have all-zero estimates and fall through to the severity order.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].EstSpeedup != fs[j].EstSpeedup {
			return fs[i].EstSpeedup > fs[j].EstSpeedup
		}
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		pi, pj := uint64(0), uint64(0)
		if len(fs[i].Sites) > 0 {
			pi = fs[i].Sites[0].PC
		}
		if len(fs[j].Sites) > 0 {
			pj = fs[j].Sites[0].PC
		}
		return pi < pj
	})
}

// SortFindings re-applies the report's payoff ordering. The advisor calls
// it after a sensitivity sweep widens the estimated speedups.
func (r *Report) SortFindings() { sortFindings(r.Findings) }

// Analysis is one standalone SASS detector. The modular design mirrors
// §3: "all analyses are standalone, hence new bottleneck analyses can
// easily be added".
type Analysis interface {
	// Name is the detector's identifier.
	Name() string
	// Detect runs the static pattern search on the prepared kernel view.
	Detect(k *KernelView) []Finding
}

// KernelView bundles the kernel with the static analyses every detector
// needs (CFG/loops, liveness, def-use), computed once.
type KernelView struct {
	Kernel   *sass.Kernel
	CFG      *sass.CFG
	Liveness *sass.Liveness
	DefUse   *sass.DefUse
}

// NewKernelView prepares the shared static analyses.
func NewKernelView(k *sass.Kernel) (*KernelView, error) {
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("scout: %w", err)
	}
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		return nil, fmt.Errorf("scout: %w", err)
	}
	return &KernelView{
		Kernel:   k,
		CFG:      cfg,
		Liveness: sass.ComputeLiveness(cfg),
		DefUse:   sass.ComputeDefUse(k),
	}, nil
}

// site builds a Site for instruction index i.
func (v *KernelView) site(i int, note string) Site {
	in := &v.Kernel.Insts[i]
	file := in.File
	if file == "" {
		file = v.Kernel.SourceFile
	}
	return Site{PC: in.PC, Line: in.Line, File: file, SASS: in.String(), Note: note}
}

// Report is the full result of one GPUscout run on one kernel.
type Report struct {
	Kernel   string
	Arch     string
	DryRun   bool
	Findings []Finding

	// Dynamic data (nil in --dry-run).
	Result  *sim.Result
	Samples *cupti.Report
	Metrics *ncu.MetricSet

	// Sensitivity is the full perturbation-matrix sweep for the kernel,
	// attached by the advisor (nil unless a sweep ran). Per-finding
	// filtered views live on the findings.
	Sensitivity *Sensitivity

	// Degradations is the ledger of everything this report lost to stage
	// failures or exhausted stage budgets — empty on a clean run. A
	// report either carries the data or an entry naming why it does not.
	Degradations []Degradation

	// Overhead accounting for the Fig. 6 analysis, in modeled SM cycles
	// (SASS analysis time is real wall time converted at the modeled
	// clock for comparability).
	OverheadSASSCycles     float64
	OverheadSamplingCycles float64
	OverheadMetricsCycles  float64
	KernelCycles           float64

	kernel *sass.Kernel // for quoting embedded source in the report
	view   *KernelView  // static analyses, for stall correlation
}
