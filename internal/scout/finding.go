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

// MarshalText is the severity's wire form: its String.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads the wire form back.
func (s *Severity) UnmarshalText(text []byte) error {
	for v := SeverityInfo; v <= SeverityCritical; v++ {
		if v.String() == string(text) {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("scout: unknown severity %q", text)
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

// Finding is one detected (potential) bottleneck. It is its own wire
// form: the fields are declared in the order, and under the names, a JSON
// report lists them; the detector-internal correlation lists are left out.
type Finding struct {
	// Analysis names the detector (its Analysis.Name).
	Analysis string `json:"analysis"`
	// Severity is filled by the dynamic pillars (INFO in --dry-run).
	Severity Severity `json:"severity"`
	// Title is the one-line recommendation headline.
	Title string `json:"title"`
	// Problem explains the detected pattern.
	Problem string `json:"problem"`
	// Recommendation tells the user what change to consider.
	Recommendation string `json:"recommendation"`
	// InLoop reports whether the pattern sits inside a loop, which
	// amplifies it (§4.3, §4.4).
	InLoop bool `json:"in_loop"`
	// EstSpeedup is the GPA-style modeled payoff ceiling: how much faster
	// the kernel could run if this finding's stalls were eliminated,
	// widened by measured sensitivity headroom when a sweep ran. Reports
	// are ordered by it (0 in --dry-run; ≥1 otherwise).
	EstSpeedup float64 `json:"est_speedup,omitempty"`
	// RelevantStallShare is the fraction of all kernel stall samples that
	// are of this finding's relevant kinds at its flagged lines (the
	// attribution correlate computes; 0 in --dry-run).
	RelevantStallShare float64 `json:"relevant_stall_share,omitempty"`
	// Sites are the code locations involved, in program order.
	Sites []Site `json:"sites"`
	// StallSummary lines describe the dominant stalls at the sites
	// (dynamic pillars; empty in --dry-run).
	StallSummary []string `json:"stall_summary,omitempty"`
	// MetricSummary lines present the metric analysis (likewise).
	MetricSummary []string `json:"metric_summary,omitempty"`
	// StallSlices are the backward producer chains explaining the
	// highest-stall PCs at this finding's sites (nil unless the run asked
	// for slices).
	StallSlices []StallSlice `json:"stall_slices,omitempty"`
	// Sensitivity is this finding's view of the microarchitectural sweep:
	// the perturbed re-simulations of the resources its bottleneck class
	// can be bound by (nil unless the advisor ran a sweep).
	Sensitivity *Sensitivity `json:"sensitivity,omitempty"`
	// Verification is the measured counterfactual evidence for the
	// recommendation, attached by the advisor when the analysis ran with
	// verification enabled and an optimized variant is paired with this
	// finding (nil otherwise).
	Verification *Verification `json:"verification,omitempty"`

	// RelevantStalls lists the stall reasons to inspect for this finding
	// (correlated by the Warp Stalls pillar).
	RelevantStalls []sim.Stall `json:"-"`
	// RelevantMetrics lists ncu metric names that assess the finding.
	RelevantMetrics []string `json:"-"`
	// CautionMetrics lists metrics to watch after applying the fix
	// (e.g. register pressure after vectorizing, MIO stalls after
	// switching to shared atomics).
	CautionMetrics []string `json:"-"`
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

// Analysis is one standalone SASS detector. The modular design mirrors
// §3: "all analyses are standalone, hence new bottleneck analyses can
// easily be added".
type Analysis interface {
	// Name is the detector's identifier.
	Name() string
	// Detect runs the static pattern search on the prepared kernel view.
	Detect(k *KernelView) []Finding
	// Describe returns what the rest of the core needs to know about the
	// detector's bottleneck class.
	Describe() Description
}

// Description holds a detector's facts beyond its match.
type Description struct {
	// Resources lists the hardware resources (gpu.ResourceNames) the
	// bottleneck class can be bound by; a finding's sensitivity block is
	// filtered to them so the attribution stays causal, not correlational.
	Resources []string
	// DerivedMetrics appends the detector's derived-metric formula (§2.3,
	// §4.2, §4.3) to a correlated finding's metric summary.
	DerivedMetrics func(m *MetricLines)
	// FusedByLDGSTS is set when the detector keys on the LDGs an
	// async-copy lowering (LDGSTS fusion) deletes, so a finding missing on
	// such an architecture is explained rather than merely absent.
	FusedByLDGSTS bool
}

// KernelView bundles the kernel with the static analyses every detector
// needs (CFG/loops, liveness, def-use, the global-load index), computed
// once.
type KernelView struct {
	Kernel   *sass.Kernel
	CFG      *sass.CFG
	Liveness *sass.Liveness
	DefUse   *sass.DefUse
	// Loads indexes the kernel's global loads (LDG with a memory operand):
	// groups sorted by (Base, Def), each group's loads in program order.
	// It is the only LDG scan the detectors share (§4.1, §4.3, §4.5, §4.6).
	Loads []LoadGroup
}

// LoadGroup holds the global loads off one value of one base register.
// Loads combine, alias or form a window only while the base holds the
// same value, so the key is the register plus its reaching definition.
type LoadGroup struct {
	Base sass.Reg
	Def  int     // DefUse.LastDefBefore(Base, load); -1 = live on entry
	Idxs []int   // instruction indices, program order
	Offs []int64 // immediate offsets, parallel to Idxs
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
	v := &KernelView{
		Kernel:   k,
		CFG:      cfg,
		Liveness: sass.ComputeLiveness(cfg),
		DefUse:   sass.ComputeDefUse(k),
	}
	at := map[[2]int]int{} // (base, def) -> position in v.Loads before sorting
	for i := range k.Insts {
		if k.Insts[i].Op != sass.OpLDG {
			continue
		}
		mem, ok := k.Insts[i].MemOperand()
		if !ok {
			continue
		}
		key := [2]int{int(mem.Reg), v.DefUse.LastDefBefore(mem.Reg, i)}
		n, seen := at[key]
		if !seen {
			n, at[key] = len(v.Loads), len(v.Loads)
			v.Loads = append(v.Loads, LoadGroup{Base: mem.Reg, Def: key[1]})
		}
		v.Loads[n].Idxs = append(v.Loads[n].Idxs, i)
		v.Loads[n].Offs = append(v.Loads[n].Offs, mem.Imm)
	}
	sort.Slice(v.Loads, func(i, j int) bool {
		if v.Loads[i].Base != v.Loads[j].Base {
			return v.Loads[i].Base < v.Loads[j].Base
		}
		return v.Loads[i].Def < v.Loads[j].Def
	})
	return v, nil
}

// loadGroups returns the load index restricted to the loads keep
// accepts; groups left empty are dropped.
func (v *KernelView) loadGroups(keep func(i int) bool) []LoadGroup {
	var out []LoadGroup
	for _, g := range v.Loads {
		f := LoadGroup{Base: g.Base, Def: g.Def}
		for n, i := range g.Idxs {
			if keep(i) {
				f.Idxs = append(f.Idxs, i)
				f.Offs = append(f.Offs, g.Offs[n])
			}
		}
		if len(f.Idxs) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// readOnlyLoad reports whether the indexed load at i could take the
// read-only data path (§4.5, §4.6): it is not already LDG.NC and its
// pointer is never stored through.
func (v *KernelView) readOnlyLoad(i int) bool {
	in := &v.Kernel.Insts[i]
	mem, _ := in.MemOperand()
	return !in.IsNC() && !v.DefUse.PointerStoredThroughAt(mem.Reg, i)
}

// addSites appends one site per instruction index, in the order given,
// noted by note(n, i). An instruction inside a loop marks the finding
// InLoop and gets loopNote appended to its note.
func (v *KernelView) addSites(f *Finding, idxs []int, loopNote string, note func(n, i int) string) {
	for n, i := range idxs {
		in := &v.Kernel.Insts[i]
		s := Site{PC: in.PC, Line: in.Line, File: in.File, SASS: in.String(), Note: note(n, i)}
		if s.File == "" {
			s.File = v.Kernel.SourceFile
		}
		if v.CFG.InLoop(i) {
			f.InLoop = true
			s.Note += loopNote
		}
		f.Sites = append(f.Sites, s)
	}
}

// Report is the full result of one GPUscout run on one kernel. It is its
// own wire form: the tagged fields, in wire order, are everything a
// frontend (the paper's planned visualization, Fig. 7) needs, and a
// report decoded from the cache, the store or a peer is this type. The
// simulator state and the host-time measurement stay in memory.
type Report struct {
	Kernel   string    `json:"kernel"`
	Arch     string    `json:"arch"`
	DryRun   bool      `json:"dry_run"`
	Findings []Finding `json:"findings"`

	// Degradations is the ledger of everything this report lost to stage
	// failures or exhausted stage budgets — empty on a clean run. A
	// report either carries the data or an entry naming why it does not.
	Degradations []Degradation `json:"degradations,omitempty"`

	// Dynamic data, filled once by the dynamic pillars (zero in --dry-run).
	KernelCycles      float64               `json:"kernel_cycles,omitempty"`
	AchievedOccupancy float64               `json:"achieved_occupancy,omitempty"`
	Metrics           *ncu.MetricSet        `json:"metrics,omitempty"`
	StallShares       map[sim.Stall]float64 `json:"stall_shares,omitempty"`
	// HottestLines is the ten-line "where should I look first" profile.
	HottestLines []LineHeat `json:"hottest_lines,omitempty"`
	Overhead     *Overhead  `json:"overhead_cycles,omitempty"`

	// Sensitivity is the full perturbation-matrix sweep for the kernel,
	// attached by the advisor (nil unless a sweep ran). Per-finding
	// filtered views live on the findings.
	Sensitivity *Sensitivity `json:"sensitivity,omitempty"`

	Result  *sim.Result   `json:"-"`
	Samples *cupti.Report `json:"-"`
	// OverheadSASSCycles is the host wall time of the static analysis
	// converted at the modeled clock (Fig. 6's third column): like
	// sim.Result.Host it is outside the determinism guarantee, and neither
	// MarshalJSON nor Render emits it.
	OverheadSASSCycles float64 `json:"-"`

	kernel *sass.Kernel // for quoting embedded source in the report
	view   *KernelView  // static analyses, for stall correlation
}

// Overhead is the modeled part of the Fig. 6 accounting, in SM cycles:
// the PC-sampling pass and the ncu replay passes.
type Overhead struct {
	Sampling float64 `json:"sampling"`
	Metrics  float64 `json:"metrics"`
}
