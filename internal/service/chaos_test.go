//go:build faultinject

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/scout"
)

// debugArm arms a fault through the HTTP debug API (the same surface an
// operator uses against a chaos build of gpuscoutd).
func debugArm(t *testing.T, url, site, mode string, delayMS, times int) {
	t.Helper()
	body := fmt.Sprintf(`{"site":%q,"mode":%q,"delay_ms":%d,"times":%d}`, site, mode, delayMS, times)
	resp, err := http.Post(url+"/debug/faultinject", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("arm %s: %v", site, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm %s: status %d", site, resp.StatusCode)
	}
}

func debugReset(t *testing.T, url string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url+"/debug/faultinject", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("reset: %v", err)
	}
	resp.Body.Close()
}

// TestChaosServiceDebugEndpoint drives faults into a running daemon
// purely over HTTP: arm → observe the degradation → disarm, with the
// process healthy throughout.
func TestChaosServiceDebugEndpoint(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	// CacheEntries: -1 — a cache hit would mask the armed fault entirely.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, RetryBackoff: 1, CacheEntries: -1})
	t.Cleanup(func() { debugReset(t, ts.URL) })

	// The debug listing knows every registered site.
	resp, err := http.Get(ts.URL + "/debug/faultinject")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Sites []string                  `json:"sites"`
		Armed map[string]map[string]any `json:"armed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	resp.Body.Close()
	if len(listing.Sites) == 0 || len(listing.Armed) != 0 {
		t.Fatalf("fresh listing: %d sites, %d armed", len(listing.Sites), len(listing.Armed))
	}

	// Every entry of a shipped ledger is a registered degraded_reports
	// series, and counted there.
	submitBody := func(req string) Status {
		t.Helper()
		resp, body := postAnalyze(t, ts, "", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		var rep scout.Report
		if err := json.Unmarshal(st.Report, &rep); err != nil {
			t.Fatalf("unmarshal report: %v", err)
		}
		for _, d := range rep.Degradations {
			if metricValue(t, ts, fmt.Sprintf(`gpuscoutd_degraded_reports_total{kind="%s_%s"}`, d.Stage, d.Kind)) < 1 {
				t.Errorf("ledger entry %s_%s shipped uncounted", d.Stage, d.Kind)
			}
		}
		return st
	}
	submit := func() Status { return submitBody(`{"workload":"histogram_shared","scale":4}`) }

	// A detector panic degrades the report; the daemon survives.
	debugArm(t, ts.URL, scout.DetectorSite("shared_atomics"), "panic", 0, 1)
	if st := submit(); st.State != StateDone || st.Degradations == 0 {
		t.Fatalf("detector panic: state=%s degradations=%d, want done+degraded", st.State, st.Degradations)
	}
	debugReset(t, ts.URL)

	// A transient resolve fault retries to success.
	debugArm(t, ts.URL, "service.resolve", "error", 0, 1)
	if st := submit(); st.State != StateDone || st.Attempts != 2 {
		t.Fatalf("transient resolve fault: state=%s attempts=%d, want done after retry", st.State, st.Attempts)
	}
	debugReset(t, ts.URL)

	// A dynamic-pillar fault is absorbed inside the analysis (static
	// fallback), so no retry happens — the report ships degraded.
	debugArm(t, ts.URL, "sim.launch", "error", 0, 8)
	st := submit()
	if st.State != StateDone || st.Degradations == 0 {
		t.Fatalf("sim fault: state=%s degradations=%d, want degraded done", st.State, st.Degradations)
	}
	if !strings.Contains(string(st.Report), `"dry_run": true`) {
		t.Error("sim fault did not fall back to a static report")
	}
	debugReset(t, ts.URL)

	// A failing verify variant costs only its own verification.
	debugArm(t, ts.URL, "advisor.verify", "error", 0, 1)
	if st := submitBody(`{"workload":"histogram_global","scale":4,"verify":true}`); st.State != StateDone || st.Degradations == 0 {
		t.Fatalf("verify fault: state=%s degradations=%d, want degraded done", st.State, st.Degradations)
	}
	debugReset(t, ts.URL)

	// Healthy and clean after the whole ordeal.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v / %v", err, hresp)
	}
	hresp.Body.Close()
	if st := submit(); st.State != StateDone || st.Degradations != 0 {
		t.Fatalf("post-chaos run: state=%s degradations=%d, want clean done", st.State, st.Degradations)
	}
}
