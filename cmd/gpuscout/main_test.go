package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/scout"
)

// TestArchCompareHonoursSensitivity: -arch-compare runs the same
// pipeline per architecture as a plain analysis, so -sensitivity attaches
// a sweep to both reports instead of being silently dropped.
func TestArchCompareHonoursSensitivity(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cmp.json")
	var stdout bytes.Buffer
	if err := run([]string{"-workload", "transpose_shared", "-scale", "64", "-sample-sms", "1",
		"-arch-compare", "sm80", "-sensitivity", "-json", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var cmp scout.JSONArchComparison
	if err := json.Unmarshal(data, &cmp); err != nil {
		t.Fatalf("-json output is not an arch comparison: %v", err)
	}
	for side, rep := range map[string]*scout.JSONReport{"base": cmp.Base, "other": cmp.Other} {
		if rep == nil || rep.Sensitivity == nil || len(rep.Sensitivity.Deltas) == 0 {
			t.Errorf("%s report carries no sensitivity sweep", side)
		}
	}
}

// TestTimeoutBoundsVerify: -timeout is split into stage budgets for the
// CLI exactly as for a daemon job, so a verification pass that overruns
// its slice ships the findings unverified with a ledger entry instead of
// running unbounded past the deadline.
func TestTimeoutBoundsVerify(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	// timeout 2s → verify slice 500ms; the armed delay overshoots it.
	if _, err := faultinject.Arm(faultinject.Fault{
		Site: "advisor.verify", Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "rep.json")
	var stdout bytes.Buffer
	if err := run([]string{"-workload", "histogram_global", "-scale", "4", "-verify",
		"-timeout", "2s", "-json", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "DEGRADED REPORT") {
		t.Error("text report lacks the DEGRADED REPORT banner")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep scout.JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Degradations {
		if d.Stage == scout.StageVerify && d.Kind == scout.DegradeTimeout {
			found = true
		}
	}
	if !found {
		t.Errorf("ledger %+v misses a verify/timeout entry", rep.Degradations)
	}
	for _, f := range rep.Findings {
		if f.Verification != nil {
			t.Errorf("finding %s verified despite the verify slice expiring", f.Analysis)
		}
	}
}
