package scout

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ArchDeltaStatus classifies how one finding behaves across two
// architectures: the cross-arch report dimension ("this bottleneck
// disappears on sm_80 because cp.async hides it").
type ArchDeltaStatus string

const (
	// DeltaPersists: the finding fires on both architectures.
	DeltaPersists ArchDeltaStatus = "persists"
	// DeltaOnlyBase: the finding fires on the base arch only — the
	// other backend's lowering (or machine balance) removed it.
	DeltaOnlyBase ArchDeltaStatus = "only_base"
	// DeltaOnlyOther: the finding appears only on the other arch.
	DeltaOnlyOther ArchDeltaStatus = "only_other"
)

// ArchDelta is one finding tracked across the two architectures.
// Findings are matched by (analysis, primary source line): source lines
// are stable across backends while PCs are not.
type ArchDelta struct {
	Analysis string          `json:"analysis"`
	Line     int             `json:"line"`
	Title    string          `json:"title"`
	Status   ArchDeltaStatus `json:"status"`

	// Severities as rendered strings; empty when the finding is absent
	// on that arch.
	BaseSeverity  string `json:"base_severity,omitempty"`
	OtherSeverity string `json:"other_severity,omitempty"`

	// Advisor verdicts ("confirmed"/"neutral"/"refuted"), empty when the
	// report was not verified or the finding is absent.
	BaseVerdict  string `json:"base_verdict,omitempty"`
	OtherVerdict string `json:"other_verdict,omitempty"`

	// Note explains the delta when the comparison can attribute it
	// (e.g. cp.async lowering hiding a global-load stall).
	Note string `json:"note,omitempty"`
}

// ArchComparison is the result of analyzing the same kernel on two
// architectures and diffing the findings. Its wire form is the delta
// list plus both full reports.
type ArchComparison struct {
	Kernel    string      `json:"kernel"`
	BaseArch  string      `json:"base_arch"`
	OtherArch string      `json:"other_arch"`
	Deltas    []ArchDelta `json:"deltas"`
	Base      *Report     `json:"base,omitempty"`
	Other     *Report     `json:"other,omitempty"`
}

func verdictOf(f *Finding) string {
	if f.Verification == nil {
		return ""
	}
	return string(f.Verification.Verdict)
}

// CompareReports diffs two reports of the same kernel produced on
// different architectures. Findings are matched by detector name and
// primary source line.
func CompareReports(base, other *Report) *ArchComparison {
	c := &ArchComparison{
		Kernel:    base.Kernel,
		BaseArch:  base.Arch,
		OtherArch: other.Arch,
		Base:      base,
		Other:     other,
	}
	type key struct {
		analysis string
		line     int
	}
	otherByKey := map[key]*Finding{}
	for i := range other.Findings {
		f := &other.Findings[i]
		k := key{f.Analysis, f.PrimaryLine()}
		if _, dup := otherByKey[k]; !dup {
			otherByKey[k] = f
		}
	}
	otherHasAsync := other.Result != nil && other.Result.Counters != nil &&
		other.Result.Counters.AsyncCopyInsts > 0

	seen := map[key]bool{}
	for i := range base.Findings {
		f := &base.Findings[i]
		k := key{f.Analysis, f.PrimaryLine()}
		if seen[k] {
			continue
		}
		seen[k] = true
		d := ArchDelta{
			Analysis:     f.Analysis,
			Line:         f.PrimaryLine(),
			Title:        f.Title,
			BaseSeverity: f.Severity.String(),
			BaseVerdict:  verdictOf(f),
		}
		if base.DryRun {
			d.BaseSeverity = "present"
		}
		if of, ok := otherByKey[k]; ok {
			d.Status = DeltaPersists
			d.OtherSeverity = of.Severity.String()
			if other.DryRun {
				d.OtherSeverity = "present"
			}
			d.OtherVerdict = verdictOf(of)
			if d.BaseSeverity != d.OtherSeverity {
				d.Note = fmt.Sprintf("severity %s on %s, %s on %s",
					d.BaseSeverity, c.BaseArch, d.OtherSeverity, c.OtherArch)
			}
			if d.BaseVerdict != "" && d.OtherVerdict != "" && d.BaseVerdict != d.OtherVerdict {
				d.Note = fmt.Sprintf("advisor verdict %s on %s, %s on %s",
					d.BaseVerdict, c.BaseArch, d.OtherVerdict, c.OtherArch)
			}
		} else {
			d.Status = DeltaOnlyBase
			if otherHasAsync && detectors[f.Analysis].FusedByLDGSTS {
				d.Note = fmt.Sprintf("the %s backend lowered this LDG+STS staging to a cp.async-style copy (LDGSTS): "+
					"the global load bypasses the register file and its latency hides behind the next barrier, "+
					"so there is no global-load stall left to optimize", c.OtherArch)
			}
		}
		c.Deltas = append(c.Deltas, d)
	}
	for i := range other.Findings {
		f := &other.Findings[i]
		k := key{f.Analysis, f.PrimaryLine()}
		if seen[k] {
			continue
		}
		seen[k] = true
		d := ArchDelta{
			Analysis:      f.Analysis,
			Line:          f.PrimaryLine(),
			Title:         f.Title,
			Status:        DeltaOnlyOther,
			OtherSeverity: f.Severity.String(),
			OtherVerdict:  verdictOf(f),
		}
		if other.DryRun {
			d.OtherSeverity = "present"
		}
		c.Deltas = append(c.Deltas, d)
	}
	return c
}

// Render produces the human-readable cross-arch comparison.
func (c *ArchComparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GPUscout cross-arch comparison — kernel %s (%s vs %s)\n",
		c.Kernel, c.BaseArch, c.OtherArch)
	cyc := func(r *Report) string {
		if r.DryRun {
			return "static-only"
		}
		return fmt.Sprintf("%.0f cycles", r.KernelCycles)
	}
	fmt.Fprintf(&b, "  %-6s %d finding(s), %s\n", c.BaseArch+":", len(c.Base.Findings), cyc(c.Base))
	fmt.Fprintf(&b, "  %-6s %d finding(s), %s\n", c.OtherArch+":", len(c.Other.Findings), cyc(c.Other))
	b.WriteString("\n")
	if len(c.Deltas) == 0 {
		b.WriteString("  no findings on either architecture\n")
		return b.String()
	}
	for i := range c.Deltas {
		d := &c.Deltas[i]
		var status string
		switch d.Status {
		case DeltaPersists:
			status = "persists"
		case DeltaOnlyBase:
			status = c.BaseArch + " only"
		case DeltaOnlyOther:
			status = c.OtherArch + " only"
		}
		fmt.Fprintf(&b, "  [%s] %s @ line %d", status, d.Analysis, d.Line)
		switch d.Status {
		case DeltaPersists:
			fmt.Fprintf(&b, ": %s on %s, %s on %s", d.BaseSeverity, c.BaseArch, d.OtherSeverity, c.OtherArch)
			if d.BaseVerdict != "" || d.OtherVerdict != "" {
				fmt.Fprintf(&b, " (verdict %s vs %s)", orDash(d.BaseVerdict), orDash(d.OtherVerdict))
			}
		case DeltaOnlyBase:
			fmt.Fprintf(&b, ": %s on %s, absent on %s", d.BaseSeverity, c.BaseArch, c.OtherArch)
		case DeltaOnlyOther:
			fmt.Fprintf(&b, ": absent on %s, %s on %s", c.BaseArch, d.OtherSeverity, c.OtherArch)
		}
		b.WriteString("\n")
		if d.Note != "" {
			fmt.Fprintf(&b, "      %s\n", d.Note)
		}
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// MarshalJSON encodes the comparison indented, through a local type
// without the method.
func (c *ArchComparison) MarshalJSON() ([]byte, error) {
	type wire ArchComparison
	return json.MarshalIndent((*wire)(c), "", "  ")
}
