package service

import (
	"net/http"
	"strings"
	"testing"

	"gpuscout/internal/scout"
)

// TestStageCounts pins what each request shape reports to the stage
// clock, as gpuscoutd_stage_seconds_count deltas: build once per
// resolution and once per lowering, analyze and verify once per target,
// encode once per simulated answer, and nothing for a stage that did not
// run — a hit's pipeline, or the passes a static fallback skips.
func TestStageCounts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	counts := func() map[string]float64 {
		m := map[string]float64{}
		for _, stage := range scout.TimedStages {
			m[stage] = metricValue(t, ts, `gpuscoutd_stage_seconds_count{stage="`+stage+`"}`)
		}
		return m
	}
	plain := `{"workload":"transpose_naive","scale":32}`
	for _, tc := range []struct {
		name, body string
		want       map[string]float64
	}{
		{"fresh plain miss", plain, map[string]float64{"build": 2, "analyze": 1, "verify": 0, "sweep": 0, "encode": 1}},
		{"Submit hit", plain, map[string]float64{"build": 1, "analyze": 0, "verify": 0, "sweep": 0, "encode": 0}},
		{"arch_compare + verify miss", `{"workload":"transpose_naive","scale":32,"arch_compare":"sm_80","verify":true}`,
			map[string]float64{"build": 3, "analyze": 2, "verify": 2, "sweep": 0, "encode": 1}},
		// Over the device bound the launch fails and the report falls
		// back to static analysis, skipping the requested passes.
		{"static fallback with verify+sensitivity", `{"workload":"sgemm_naive","scale":8192,"verify":true,"sensitivity":true}`,
			map[string]float64{"build": 2, "analyze": 1, "verify": 0, "sweep": 0, "encode": 1}},
	} {
		before := counts()
		resp, body := postAnalyze(t, ts, "", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (body %s)", tc.name, resp.StatusCode, body)
		}
		if fallback := strings.Contains(string(body), "fell back to static"); fallback != strings.HasPrefix(tc.name, "static") {
			t.Errorf("%s: static fallback %t", tc.name, fallback)
		}
		after := counts()
		for stage, want := range tc.want {
			if got := after[stage] - before[stage]; got != want {
				t.Errorf("%s: stage %s timed %g times, want %g", tc.name, stage, got, want)
			}
		}
	}
}
