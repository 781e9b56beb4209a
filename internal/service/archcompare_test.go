package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"gpuscout/internal/scout"
)

// TestAnalyzeArchCompare: a workload request with arch_compare runs both
// lowerings and the report payload is the cross-arch comparison document.
// Each target goes through the shared pipeline, so its verification pass
// shows up in the verify stage histogram like a plain job's.
func TestAnalyzeArchCompare(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	req := `{"workload":"sgemm_shared","scale":64,"arch":"sm_70","arch_compare":"sm80","verify":true}`

	resp, body := postAnalyze(t, ts, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal status: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	var cmp scout.ArchComparison
	if err := json.Unmarshal(st.Report, &cmp); err != nil {
		t.Fatalf("report is not an arch comparison: %v\n%.200s", err, st.Report)
	}
	if cmp.BaseArch != "sm_70" || cmp.OtherArch != "sm_80" {
		t.Errorf("arches = %q/%q, want sm_70/sm_80", cmp.BaseArch, cmp.OtherArch)
	}
	if cmp.Base == nil || cmp.Other == nil {
		t.Fatal("comparison lacks the two full reports")
	}
	if len(cmp.Deltas) == 0 {
		t.Fatal("no deltas — sgemm_shared must differ across sm_70/sm_80")
	}
	// The headline cross-arch story: sgemm_shared's global-load findings
	// disappear on sm_80 because the backend lowered the staging to
	// cp.async copies.
	onlyBase := 0
	for _, d := range cmp.Deltas {
		if d.Status == scout.DeltaOnlyBase {
			onlyBase++
		}
	}
	if onlyBase == 0 {
		t.Errorf("no sm_70-only findings in deltas: %+v", cmp.Deltas)
	}
	if n := metricValue(t, ts, `gpuscoutd_stage_seconds_count{stage="verify"}`); n != 2 {
		t.Errorf(`stage_seconds{stage="verify"} count = %g, want 2 (one per target)`, n)
	}

	// Identical request again: served from cache.
	resp, body = postAnalyze(t, ts, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st2 Status
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st2.State != StateDone || !st2.CacheHit {
		t.Errorf("second analyze: state=%s cacheHit=%v, want done/true", st2.State, st2.CacheHit)
	}

	// Same workload WITHOUT arch_compare must not collide in the cache
	// with the comparison document.
	resp, body = postAnalyze(t, ts, "", `{"workload":"sgemm_shared","scale":64,"arch":"sm_70"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st3 Status
	if err := json.Unmarshal(body, &st3); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st3.CacheHit {
		t.Error("plain request hit the arch-compare cache entry")
	}
	var plain scout.Report
	if err := json.Unmarshal(st3.Report, &plain); err != nil {
		t.Fatalf("plain report: %v", err)
	}
	if plain.Arch != "sm_70" {
		t.Errorf("plain report arch = %q, want sm_70", plain.Arch)
	}
}

// arch_compare is only meaningful for workload analyses: uploaded SASS or
// cubins are already lowered for one architecture.
func TestArchCompareValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, body := postAnalyze(t, ts, "", `{"sass":"LDG.E R0, [R2] ;","arch_compare":"sm80"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}

	resp, body = postAnalyze(t, ts, "", `{"workload":"sgemm_shared","arch_compare":"sm_999"}`)
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unknown arch_compare: status %d, non-status body %s", resp.StatusCode, body)
	}
	if st.State != StateFailed {
		t.Fatalf("unknown arch_compare: state=%s (status %d), want failed", st.State, resp.StatusCode)
	}
}
