package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gpuscout/internal/store"
)

// openTestStore opens a store on dir that the test closes; the service
// built over it must be closed first (newStoreServer arranges that via
// t.Cleanup ordering: LIFO, so register the store before the service).
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{FsyncPolicy: store.FsyncNever})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func newStoreServer(t *testing.T, dir string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Store = openTestStore(t, dir)
	return newTestServer(t, cfg)
}

// waitRecovered blocks until startup recovery has drained (readiness no
// longer reports the journal replay).
func waitRecovered(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !svc.recovering.Load() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("recovery never finished")
}

// analyzeOK posts one synchronous analysis that must come back done.
func analyzeOK(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, data := postAnalyze(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze %s: status %d, body %s", body, resp.StatusCode, data)
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateDone || len(st.Report) == 0 {
		t.Fatalf("analyze %s: state=%s, want done with report", body, st.State)
	}
	return st
}

// TestRecomputeEqualsCache: a report is a function of its request, so
// every way of obtaining it yields the same bytes — computed on a miss,
// served from the memory cache, recomputed by a daemon with no cache at
// all, and read back from disk after a restart. One workload per family,
// plain and with every re-execution pass on; the bodies are compared
// raw.
func TestRecomputeEqualsCache(t *testing.T) {
	var bodies []string
	for _, w := range []string{
		`"mixbench_sp_naive","scale":8`, `"jacobi_naive","scale":128`, `"sgemm_naive","scale":64`,
		`"transpose_shared","scale":64`, `"spill_pressure","scale":8`, `"histogram_global","scale":4`,
		`"reduction_atomic"`,
	} {
		bodies = append(bodies,
			`{"workload":`+w+`,"sample_sms":1}`,
			`{"workload":`+w+`,"sample_sms":1,"verify":true,"sensitivity":true,"stall_slices":true}`)
	}
	dir := t.TempDir()
	svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	_, uncached := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheEntries: -1})
	first := map[string][]byte{}
	for _, body := range bodies {
		miss, hit, recomputed := analyzeOK(t, ts, body), analyzeOK(t, ts, body), analyzeOK(t, uncached, body)
		if miss.CacheHit || !hit.CacheHit || recomputed.CacheHit {
			t.Fatalf("%s: cache_hit = %v, %v, %v; want a miss, a hit and a recomputation", body, miss.CacheHit, hit.CacheHit, recomputed.CacheHit)
		}
		if miss.Degradations != 0 {
			t.Fatalf("%s: degraded report (%d ledger entries) is never cached", body, miss.Degradations)
		}
		if !bytes.Equal(miss.Report, hit.Report) {
			t.Errorf("%s: the cached report differs from the computed one", body)
		}
		if !bytes.Equal(miss.Report, recomputed.Report) {
			t.Errorf("%s: a recomputation differs from the cached report", body)
		}
		first[body] = miss.Report
	}
	ts.Close()
	svc.Close()
	svc.cfg.Store.Close()

	svc2, ts2 := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	waitRecovered(t, svc2)
	for _, body := range bodies {
		if disk := analyzeOK(t, ts2, body); !disk.CacheHit || !bytes.Equal(first[body], disk.Report) {
			t.Errorf("%s: after a restart cache_hit=%v identical=%v, want the first life's bytes from disk",
				body, disk.CacheHit, bytes.Equal(first[body], disk.Report))
		}
	}
	if hits := metricValue(t, ts2, "gpuscoutd_store_hits_total"); hits != float64(len(bodies)) {
		t.Errorf("store hits = %g, want %d", hits, len(bodies))
	}
}

// TestWarmRestartServesFromDisk is the tentpole acceptance test: a
// restarted daemon (fresh memory cache, same data-dir) serves
// previously computed fingerprints from the persistent store without
// re-simulating — store hits observed, zero pipeline runs, and the
// bytes identical to the first life's reports.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	reqs := []string{
		`{"workload":"transpose_naive","scale":32}`,
		`{"workload":"jacobi_naive","scale":32}`,
	}

	// First life: compute and persist.
	first := map[string][]byte{}
	{
		svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
		for _, body := range reqs {
			resp, data := postAnalyze(t, ts, "", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("first life %s: status %d, body %s", body, resp.StatusCode, data)
			}
			var st Status
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone || len(st.Report) == 0 {
				t.Fatalf("first life %s: state=%s", body, st.State)
			}
			first[body] = st.Report
		}
		// End the first life cleanly before the second opens the same
		// directory (the deferred cleanups would only run at test end).
		ts.Close()
		svc.Close()
		svc.cfg.Store.Close()
	}

	// Second life: same data-dir, cold memory cache.
	svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	waitRecovered(t, svc)
	for _, body := range reqs {
		resp, data := postAnalyze(t, ts, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("second life %s: status %d, body %s", body, resp.StatusCode, data)
		}
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || !st.CacheHit {
			t.Fatalf("second life %s: state=%s cacheHit=%v, want a store hit", body, st.State, st.CacheHit)
		}
		if !bytes.Equal(first[body], st.Report) {
			t.Errorf("%s: restarted report differs from the first life's bytes", body)
		}
	}
	if hits := metricValue(t, ts, "gpuscoutd_store_hits_total"); hits != float64(len(reqs)) {
		t.Errorf("store hits = %g, want %d", hits, len(reqs))
	}
	if misses := metricValue(t, ts, "gpuscoutd_cache_misses_total"); misses != 0 {
		t.Errorf("cache (pipeline) misses = %g, want 0 — the restart re-simulated", misses)
	}
}

// TestJournalRecoveryReenqueues: a journal holding an accept without a
// tombstone (the artifact of a crash mid-job) is replayed at startup —
// the job re-runs under its original ID and lands a report.
func TestJournalRecoveryReenqueues(t *testing.T) {
	dir := t.TempDir()
	// Forge the crashed daemon's journal directly at the store layer.
	{
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reqJSON, _ := json.Marshal(AnalyzeRequest{Workload: "transpose_naive", Scale: 32})
		r := AnalyzeRequest{Workload: "transpose_naive", Scale: 32}
		if err := st.AppendAccept("j00000007", r.Fingerprint(), reqJSON); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}

	svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	waitRecovered(t, svc)

	// The recovered job is addressable under its journaled ID.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st Status
		resp := getJSON(t, ts.URL+"/v1/jobs/j00000007", &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET recovered job: status %d", resp.StatusCode)
		}
		if st.State == StateDone {
			if len(st.Report) == 0 {
				t.Fatal("recovered job finished without a report")
			}
			break
		}
		if st.State.Terminal() {
			t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /healthz accounts for the replay.
	var hz map[string]any
	getJSON(t, ts.URL+"/healthz", &hz)
	if got, _ := hz["recovered_jobs"].(float64); got != 1 {
		t.Errorf("healthz recovered_jobs = %v, want 1", hz["recovered_jobs"])
	}
	dd, _ := hz["data_dir"].(map[string]any)
	if dd == nil || dd["path"] == "" {
		t.Errorf("healthz data_dir block missing: %v", hz["data_dir"])
	}
	if hits := metricValue(t, ts, "gpuscoutd_recovered_jobs_total"); hits != 1 {
		t.Errorf("recovered_jobs_total = %g, want 1", hits)
	}

	// New submissions resume the ID sequence past the journaled handle.
	j, err := svc.Submit(AnalyzeRequest{Workload: "transpose_naive", DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID <= "j00000007" {
		t.Errorf("post-recovery job ID %s did not resume past the journal's j00000007", j.ID)
	}
}

// TestBreakerStateSurvivesRestart: a fingerprint quarantined in the
// first life is still rejected after a restart against the same
// data-dir — crashing the daemon does not launder poison inputs.
func TestBreakerStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	// A cubin whose body fails decoding deterministically: submissions
	// fail, the breaker opens, and the state lands in breaker.json.
	poison := AnalyzeRequest{Cubin: []byte("not a cubin at all")}
	{
		svc, _ := newStoreServer(t, dir, Config{
			Workers: 1, QueueDepth: 4,
			RetryAttempts: 1, QuarantineAfter: 1, QuarantineCooldown: time.Hour,
		})
		j, err := svc.Submit(poison)
		if err != nil {
			t.Fatalf("poison submit: %v", err)
		}
		<-j.Done()
		if st := j.StateNow(); st != StateFailed {
			t.Fatalf("poison job state = %s, want failed", st)
		}
		// Now quarantined in-memory; the restart must remember it.
		if _, err := svc.Submit(poison); err == nil {
			t.Fatal("poison not quarantined in first life")
		}
	}

	svc2, _ := newStoreServer(t, dir, Config{
		Workers: 1, QueueDepth: 4,
		RetryAttempts: 1, QuarantineAfter: 1, QuarantineCooldown: time.Hour,
	})
	waitRecovered(t, svc2)
	_, err := svc2.Submit(poison)
	if err == nil {
		t.Fatal("restart un-quarantined a poison input")
	}
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("quarantine rejection is not typed: %v", err)
	}
	if qe.RetryAfter <= 0 {
		t.Errorf("QuarantineError.RetryAfter = %v, want > 0", qe.RetryAfter)
	}
}

// TestCacheMaxBytesBound: the in-memory cache honors the byte bound on
// top of the entry cap.
func TestCacheMaxBytesBound(t *testing.T) {
	c := newReportCache(100, 100)
	big := make([]byte, 60)
	c.put("k1", big)
	c.put("k2", big)
	if got := c.size(); got != 1 {
		t.Fatalf("entries after byte-bound eviction = %d, want 1", got)
	}
	if _, ok := c.get("k2"); !ok {
		t.Error("most recent entry evicted instead of the LRU one")
	}
	if got := c.bytesUsed(); got != 60 {
		t.Errorf("bytesUsed = %d, want 60", got)
	}
	// An entry bigger than the whole bound is refused outright.
	c.put("huge", make([]byte, 200))
	if _, ok := c.get("huge"); ok {
		t.Error("over-bound entry was cached")
	}
	// Updating an entry in place re-accounts its bytes.
	c.put("k2", make([]byte, 10))
	if got := c.bytesUsed(); got != 10 {
		t.Errorf("bytesUsed after update = %d, want 10", got)
	}
}
