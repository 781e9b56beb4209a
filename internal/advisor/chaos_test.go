//go:build faultinject

package advisor

import (
	"context"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
)

// budgetExpiresMidPass runs p under a 2 s deadline — a 500 ms slice for
// the pass — with site armed to let its first `pass` hits through and
// delay every later one past the slice, so the slice expires while items
// are in flight. It returns the report and the pass's ledger entries.
func budgetExpiresMidPass(t *testing.T, p Plan, site string, pass int) (*scout.Report, []scout.Degradation) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if _, err := faultinject.Arm(faultinject.Fault{Site: site, Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, SkipHits: pass}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := Run(ctx, p)
	if err != nil {
		t.Fatalf("Run: %v; an expired slice ships a report", err)
	}
	var ledger []scout.Degradation
	for _, d := range out.Report.Degradations {
		if d.Site != site || d.Kind != scout.DegradeTimeout {
			t.Errorf("ledger entry %+v, want a %s timeout", d, site)
		}
		ledger = append(ledger, d)
	}
	return out.Report, ledger
}

// accountedOnce checks the budget rule's promise: each of items (in the
// pass's reduction order) is either measured or named by exactly one
// ledger entry, the ledger follows that order, and the slice really
// expired partway — some items measured, some lost.
func accountedOnce(t *testing.T, items []string, measured map[string]bool, ledger []scout.Degradation, label string) {
	t.Helper()
	last := -1
	for _, d := range ledger {
		i := 0
		for i < len(items) && !strings.HasPrefix(d.Detail, label+items[i]+" ") {
			i++
		}
		switch {
		case i == len(items):
			t.Errorf("ledger entry %q names no item", d.Detail)
			continue
		case measured[items[i]]:
			t.Errorf("%s is both measured and in the ledger", items[i])
		case i <= last:
			t.Errorf("ledger entry for %s after %s: not in reduction order", items[i], items[last])
		}
		last = i
	}
	if len(measured)+len(ledger) != len(items) || len(measured) == 0 || len(ledger) == 0 {
		t.Errorf("%d measured + %d ledger entries for %d items; want each once, and both kinds", len(measured), len(ledger), len(items))
	}
}

// TestChaosSweepBudgetExpiresMidFlight: the sweep slice expires while
// cells are running. Cells that had started end through their own ctx
// poll and are classified as timeouts; cells not yet started are
// skipped. Every perturbation is a delta or one ledger entry, both in
// matrix order, and Run ships the report.
func TestChaosSweepBudgetExpiresMidFlight(t *testing.T) {
	rep, ledger := budgetExpiresMidPass(t, Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: sim.Config{SampleSMs: 1}},
		Workload: "transpose_naive", Scale: 64, Sensitivity: true}, "advisor.sweep", 3)
	perts := gpu.Perturbations()
	ids := make([]string, len(perts))
	for i, p := range perts {
		ids[i] = p.ID()
	}
	measured := map[string]bool{}
	next := 0
	for _, d := range rep.Sensitivity.Deltas {
		id := d.Resource + "/" + d.Direction
		for next < len(ids) && ids[next] != id {
			next++
		}
		if next == len(ids) {
			t.Fatalf("delta %s out of matrix order: %+v", id, rep.Sensitivity.Deltas)
		}
		measured[id] = true
	}
	accountedOnce(t, ids, measured, ledger, "perturbation ")
}

// TestChaosVerifyBudgetExpiresMidFlight is the same rule for Verify's
// three jacobi_naive variants, in sorted order.
func TestChaosVerifyBudgetExpiresMidFlight(t *testing.T) {
	rep, ledger := budgetExpiresMidPass(t, Plan{Arch: gpu.V100(), Opts: scout.Options{Sim: sim.Config{SampleSMs: 1}},
		Workload: "jacobi_naive", Scale: 128, Verify: true}, "advisor.verify", 1)
	measured := map[string]bool{}
	for _, f := range rep.Findings {
		if f.Verification != nil {
			measured[f.Verification.Fixed] = true
		}
	}
	accountedOnce(t, []string{"jacobi_restrict", "jacobi_shared", "jacobi_texture"}, measured, ledger, "variant ")
}

// TestChaosStaticFallbackSkipsPasses: when the dynamic pillars fail and
// the report falls back to static, a requested verify or sweep is not
// run against the missing baseline; Run ships the static report with one
// ledger entry per skipped pass.
func TestChaosStaticFallbackSkipsPasses(t *testing.T) {
	for _, tc := range []struct {
		name                string
		verify, sensitivity bool
		sites               []string
	}{
		{"verify", true, false, []string{"advisor.verify"}},
		{"sensitivity", false, true, []string{"advisor.sweep"}},
		{"both", true, true, []string{"advisor.verify", "advisor.sweep"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			if _, err := faultinject.Arm(faultinject.Fault{Site: "cupti.collect", Mode: faultinject.ModeError, Times: 1}); err != nil {
				t.Fatal(err)
			}
			ctx, timed := stageClock()
			out, err := Run(ctx, Plan{Arch: gpu.V100(), Workload: "histogram_global", Scale: 4,
				Verify: tc.verify, Sensitivity: tc.sensitivity})
			if err != nil {
				t.Fatalf("Run: %v; a static fallback ships a report", err)
			}
			rep := out.Report
			if !rep.DryRun || rep.Sensitivity != nil {
				t.Fatalf("report: dry_run %t, sensitivity %v; want the static fallback", rep.DryRun, rep.Sensitivity)
			}
			var skipped []string
			for _, d := range rep.Degradations {
				if d.Stage != scout.StageVerify {
					continue
				}
				if d.Kind != scout.DegradeError || !strings.Contains(d.Detail, "fell back to static") {
					t.Errorf("ledger entry %+v, want an error naming the fallback", d)
				}
				skipped = append(skipped, d.Site)
			}
			if strings.Join(skipped, ",") != strings.Join(tc.sites, ",") {
				t.Errorf("skipped passes %v, want %v", skipped, tc.sites)
			}
			if out.Verified != nil {
				t.Errorf("verified %+v for a report with no baseline", out.Verified)
			}
			if timed[scout.TimeAnalyze] != 1 || timed[scout.TimeVerify] != 0 || timed[scout.TimeSweep] != 0 {
				t.Errorf("clock timed %v; want the analysis and no skipped pass", timed)
			}
		})
	}
}
