package scout

import (
	"encoding/json"
	"strings"
	"testing"

	"gpuscout/internal/sim"
)

func mkFinding(analysis string, line int, sev Severity, verdict Verdict) Finding {
	f := Finding{
		Analysis: analysis,
		Title:    analysis + " finding",
		Sites:    []Site{{Line: line, PC: uint64(line * 16)}},
		Severity: sev,
	}
	if verdict != "" {
		f.Verification = &Verification{Verdict: verdict}
	}
	return f
}

func TestCompareReportsStatuses(t *testing.T) {
	base := &Report{
		Kernel: "k",
		Arch:   "sm_70",
		Findings: []Finding{
			mkFinding("readonly_cache", 8, SeverityCritical, VerdictConfirmed),
			mkFinding("bank_conflict", 12, SeverityWarning, VerdictConfirmed),
			mkFinding("register_spill", 20, SeverityWarning, ""),
		},
		Result: &sim.Result{},
	}
	other := &Report{
		Kernel: "k",
		Arch:   "sm_80",
		Findings: []Finding{
			mkFinding("bank_conflict", 12, SeverityWarning, VerdictNeutral),
			mkFinding("register_spill", 20, SeverityWarning, ""),
			mkFinding("shared_atomic", 30, SeverityInfo, ""),
		},
		Result: &sim.Result{Counters: &sim.Counters{AsyncCopyInsts: 3}},
	}

	c := CompareReports(base, other)
	if c.Kernel != "k" || c.BaseArch != "sm_70" || c.OtherArch != "sm_80" {
		t.Fatalf("header = %q/%q/%q", c.Kernel, c.BaseArch, c.OtherArch)
	}
	if len(c.Deltas) != 4 {
		t.Fatalf("got %d deltas, want 4: %+v", len(c.Deltas), c.Deltas)
	}
	byKey := map[string]*ArchDelta{}
	for i := range c.Deltas {
		byKey[c.Deltas[i].Analysis] = &c.Deltas[i]
	}

	ro := byKey["readonly_cache"]
	if ro.Status != DeltaOnlyBase {
		t.Errorf("readonly_cache status = %s, want only_base", ro.Status)
	}
	if !strings.Contains(ro.Note, "cp.async") || !strings.Contains(ro.Note, "LDGSTS") {
		t.Errorf("readonly_cache note lacks cp.async attribution: %q", ro.Note)
	}

	bc := byKey["bank_conflict"]
	if bc.Status != DeltaPersists {
		t.Errorf("bank_conflict status = %s, want persists", bc.Status)
	}
	if bc.BaseVerdict != "confirmed" || bc.OtherVerdict != "neutral" {
		t.Errorf("bank_conflict verdicts = %q/%q", bc.BaseVerdict, bc.OtherVerdict)
	}
	if !strings.Contains(bc.Note, "advisor verdict") {
		t.Errorf("bank_conflict note = %q, want verdict delta note", bc.Note)
	}

	rs := byKey["register_spill"]
	if rs.Status != DeltaPersists || rs.BaseSeverity != rs.OtherSeverity || rs.BaseVerdict != rs.OtherVerdict {
		t.Errorf("register_spill unchanged on both arches: %+v", *rs)
	}

	sa := byKey["shared_atomic"]
	if sa.Status != DeltaOnlyOther {
		t.Errorf("shared_atomic status = %s, want only_other", sa.Status)
	}
	if sa.Note != "" {
		t.Errorf("shared_atomic (not a global-load detector) got note %q", sa.Note)
	}

	out := c.Render()
	for _, want := range []string{"sm_70 vs sm_80", "sm_70 only", "sm_80 only", "persists", "cp.async"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

// The cp.async attribution must not fire when the other arch executed no
// async copies — absence then has some other cause.
func TestCompareReportsNoAsyncNoNote(t *testing.T) {
	base := &Report{Kernel: "k", Arch: "sm_70",
		Findings: []Finding{mkFinding("readonly_cache", 8, SeverityCritical, "")},
		Result:   &sim.Result{}}
	other := &Report{Kernel: "k", Arch: "sm_80", Result: &sim.Result{Counters: &sim.Counters{}}}
	c := CompareReports(base, other)
	if len(c.Deltas) != 1 {
		t.Fatalf("got %d deltas, want 1", len(c.Deltas))
	}
	if c.Deltas[0].Note != "" {
		t.Errorf("note = %q, want empty without async-copy evidence", c.Deltas[0].Note)
	}
}

// Duplicate (analysis, line) pairs collapse to one delta; dry-run reports
// render severity as "present".
func TestCompareReportsDedupAndDryRun(t *testing.T) {
	base := &Report{Kernel: "k", Arch: "sm_70", DryRun: true,
		Findings: []Finding{
			mkFinding("vectorized_load", 7, 0, ""),
			mkFinding("vectorized_load", 7, 0, ""),
		}}
	other := &Report{Kernel: "k", Arch: "sm_80", DryRun: true,
		Findings: []Finding{mkFinding("vectorized_load", 7, 0, "")}}
	c := CompareReports(base, other)
	if len(c.Deltas) != 1 {
		t.Fatalf("got %d deltas, want 1 (dedup by analysis+line): %+v", len(c.Deltas), c.Deltas)
	}
	d := c.Deltas[0]
	if d.BaseSeverity != "present" || d.OtherSeverity != "present" {
		t.Errorf("dry-run severities = %q/%q, want present/present", d.BaseSeverity, d.OtherSeverity)
	}
	if d.Status != DeltaPersists {
		t.Errorf("status = %s, want persists", d.Status)
	}
}

func TestArchComparisonJSON(t *testing.T) {
	base := &Report{Kernel: "k", Arch: "sm_70",
		Findings: []Finding{mkFinding("readonly_cache", 8, SeverityCritical, VerdictConfirmed)},
		Result:   &sim.Result{Counters: &sim.Counters{}}}
	other := &Report{Kernel: "k", Arch: "sm_80", Result: &sim.Result{Counters: &sim.Counters{AsyncCopyInsts: 1}}}
	c := CompareReports(base, other)
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var round ArchComparison
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if round.BaseArch != "sm_70" || round.OtherArch != "sm_80" {
		t.Errorf("arches = %q/%q", round.BaseArch, round.OtherArch)
	}
	if len(round.Deltas) != 1 || round.Deltas[0].Status != "only_base" {
		t.Fatalf("deltas = %+v", round.Deltas)
	}
	if round.Base == nil || round.Other == nil {
		t.Error("full reports missing from JSON form")
	}
	if round.Deltas[0].Note == "" {
		t.Error("note lost in JSON round-trip")
	}
}
