package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
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

// TestLocalHitAnsweredAtSubmit: a request whose report is in memory or on
// disk is answered by Submit itself. It writes no journal record, needs
// no worker and no queue slot, and its status and metrics are those of a
// hit a worker serves. A dead store or a closed service still refuses it.
func TestLocalHitAnsweredAtSubmit(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	bodies := []string{
		`{"workload":"transpose_naive","scale":32,"dry_run":true}`,
		`{"workload":"jacobi_naive","scale":32,"dry_run":true}`,
		`{"workload":"histogram_global","scale":4,"dry_run":true}`,
	}
	svc, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 1})
	st := svc.cfg.Store
	metric := func(ts *httptest.Server, name string) float64 { return metricValue(t, ts, name) }
	const done = `gpuscoutd_jobs_finished_total{state="done"}`
	// comparable drops what differs between two answers of one request:
	// the handle and the clock.
	comparable := func(s Status) Status {
		if s.StartedAt == nil || s.FinishedAt == nil {
			t.Errorf("%s: started_at %v finished_at %v, want both", s.ID, s.StartedAt, s.FinishedAt)
		}
		s.ID, s.CreatedAt, s.StartedAt, s.FinishedAt = "", time.Time{}, nil, nil
		return s
	}
	// carried reports a job's state and whether it holds Submit's plans.
	carried := func(id string) (State, bool) {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s not registered", id)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.state, j.resolved.Load() != nil
	}
	wait := func(id string) Status {
		t.Helper()
		j, _ := svc.Job(id)
		<-j.Done()
		if _, held := carried(id); held {
			t.Errorf("finished job %s still holds its plans", id)
		}
		return j.Snapshot()
	}
	postAsync := func(body string, wantCode int) string {
		t.Helper()
		resp, data := postAnalyze(t, ts, "?async=1", body)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d (body %s)", body, resp.StatusCode, wantCode, data)
		}
		var acc struct {
			JobID string `json:"job_id"`
		}
		_ = json.Unmarshal(data, &acc)
		return acc.JobID
	}

	// A worker-served hit, for reference: the first job holds the only
	// worker while an identical second one queues, so the second finds
	// the first's report when its turn comes.
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 100 * time.Millisecond, Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	miss, queued := postAsync(bodies[0], http.StatusAccepted), postAsync(bodies[0], http.StatusAccepted)
	if state, held := carried(queued); state == StateQueued && !held {
		t.Error("a queued miss does not carry Submit's resolution")
	}
	missSt, workerHit := wait(miss), wait(queued)
	disarm()
	if missSt.Tier != tierSimulated || missSt.CacheHit {
		t.Errorf("miss: tier %q cache_hit %v, want simulated", missSt.Tier, missSt.CacheHit)
	}
	for _, body := range bodies[1:] {
		if st := analyzeOK(t, ts, body); st.Tier != tierSimulated {
			t.Errorf("%s: first answer tier %q, want simulated", body, st.Tier)
		}
	}

	// N memory hits: no journal record, the counters a worker would move.
	records := st.Stats().JournalRecords
	hits0, misses0, done0 := metric(ts, "gpuscoutd_cache_hits_total"), metric(ts, "gpuscoutd_cache_misses_total"), metric(ts, done)
	var memoryHit Status
	for i, body := range bodies {
		hit := analyzeOK(t, ts, body)
		if hit.Tier != tierMemory || !hit.CacheHit {
			t.Errorf("%s: tier %q cache_hit %v, want a memory hit", body, hit.Tier, hit.CacheHit)
		}
		if i == 0 {
			memoryHit = hit
		}
	}
	if got := st.Stats().JournalRecords; got != records {
		t.Errorf("memory hits wrote %d journal records", got-records)
	}
	n := float64(len(bodies))
	if got := metric(ts, "gpuscoutd_cache_hits_total") - hits0; got != n {
		t.Errorf("cache_hits_total moved %g, want %g", got, n)
	}
	if got := metric(ts, "gpuscoutd_cache_misses_total") - misses0; got != 0 {
		t.Errorf("cache_misses_total moved %g, want 0", got)
	}
	if got := metric(ts, done) - done0; got != n {
		t.Errorf("jobs_finished_total{done} moved %g, want %g", got, n)
	}
	if a, b := comparable(workerHit), comparable(memoryHit); !reflect.DeepEqual(a, b) {
		t.Errorf("hit at Submit differs from a worker-served hit:\n%+v\n%+v", b, a)
	}
	if memoryHit.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", memoryHit.Attempts)
	}
	var polled Status
	getJSON(t, ts.URL+"/v1/jobs/"+memoryHit.ID, &polled)
	if polled.State != StateDone || polled.Tier != tierMemory {
		t.Errorf("GET /v1/jobs/%s: state %s tier %q, want done from memory", memoryHit.ID, polled.State, polled.Tier)
	}

	// With the only worker stalled and the queue full, a miss is shed and
	// a hit is still answered. The queued job's deadline passes before
	// the worker reaches it: finish, not an attempt, drops its plans.
	if _, err := faultinject.Arm(faultinject.Fault{
		Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Times: 2,
	}); err != nil {
		t.Fatal(err)
	}
	running := postAsync(`{"workload":"transpose_naive","scale":64,"dry_run":true}`, http.StatusAccepted)
	for state, _ := carried(running); state == StateQueued; state, _ = carried(running) {
		time.Sleep(time.Millisecond)
	}
	waiting := postAsync(`{"workload":"transpose_naive","scale":96,"dry_run":true,"timeout_ms":50}`, http.StatusAccepted)
	postAsync(`{"workload":"transpose_naive","scale":128,"dry_run":true}`, http.StatusTooManyRequests)
	if hit := analyzeOK(t, ts, bodies[1]); hit.Tier != tierMemory {
		t.Errorf("hit behind a full queue: tier %q, want memory", hit.Tier)
	}
	wait(running)
	if st := wait(waiting); st.State != StateTimeout {
		t.Errorf("queued job: state %s, want timeout", st.State)
	}
	records = st.Stats().JournalRecords

	// An async hit's handle, which no record of its own backs.
	hitID := postAsync(bodies[2], http.StatusAccepted)
	if got := st.Stats().JournalRecords; got != records {
		t.Errorf("an async hit wrote %d journal records", got-records)
	}

	// A restart: the same requests are disk hits, still unjournaled.
	ts.Close()
	svc.Close()
	st.Close()
	svc, ts = newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 1})
	waitRecovered(t, svc)
	st = svc.cfg.Store
	if got := st.Stats().JournalRecords; got > records+1 {
		t.Fatalf("restart grew the journal from %d to %d records; want at most its id reservation", records, got)
	}
	records = st.Stats().JournalRecords
	for _, body := range bodies {
		if hit := analyzeOK(t, ts, body); hit.Tier != tierDisk || !hit.CacheHit || hit.Attempts != 1 {
			t.Errorf("%s after a restart: tier %q cache_hit %v attempts %d, want a disk hit", body, hit.Tier, hit.CacheHit, hit.Attempts)
		} else if hit.ID <= hitID {
			t.Errorf("%s after a restart: handle %s, want one past the pre-restart hit's %s", body, hit.ID, hitID)
		}
	}
	if got := st.Stats().JournalRecords; got != records {
		t.Errorf("disk hits wrote %d journal records", got-records)
	}
	if got := metric(ts, "gpuscoutd_store_hits_total"); got != n {
		t.Errorf("store_hits_total = %g, want %g", got, n)
	}
	if got := metric(ts, "gpuscoutd_cache_hits_total") + metric(ts, "gpuscoutd_cache_misses_total"); got != 0 {
		t.Errorf("disk hits moved cache_hits + cache_misses by %g, want 0", got)
	}
	if got := metric(ts, done); got != n {
		t.Errorf("jobs_finished_total{done} = %g, want %g", got, n)
	}

	// The sequence resumes past every handle issued before, the hit's
	// included: polling it finds no job rather than another request's.
	if _, ok := svc.Job(hitID); ok {
		t.Errorf("the pre-restart hit's handle %s names a job after the restart", hitID)
	}
	if id := postAsync(`{"workload":"transpose_naive","scale":160,"dry_run":true}`, http.StatusAccepted); id <= hitID {
		t.Errorf("first miss after a restart got %s, want a handle past the pre-restart hit's %s", id, hitID)
	} else {
		wait(id)
	}

	// Refusals come before any lookup: a dead store, then a closed
	// service, turn even a memory hit away.
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(bodies[0]), &req); err != nil {
		t.Fatal(err)
	}
	st.Close()
	before := retained(svc)
	if _, err := svc.Submit(req); !errors.Is(err, ErrDurability) {
		t.Errorf("hit on a dead store: err = %v, want ErrDurability", err)
	}
	if got := retained(svc); got != before {
		t.Errorf("a refused Submit moved retention (jobs, order) from %v to %v", before, got)
	}
	svc.Close()
	if _, err := svc.Submit(req); !errors.Is(err, ErrClosed) {
		t.Errorf("hit on a closed service: err = %v, want ErrClosed", err)
	}
}

// TestQueuedMissFindsDiskReport: with the memory tier off, a miss queued
// behind an identical one finds the report its twin published on disk
// when its turn comes, instead of simulating again, and the store miss
// it saw at Submit is not counted twice.
func TestQueuedMissFindsDiskReport(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	svc, ts := newStoreServer(t, t.TempDir(), Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	if _, err := faultinject.Arm(faultinject.Fault{
		Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 100 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	const body = `{"workload":"transpose_naive","scale":32,"dry_run":true}`
	var tiers []string
	var jobs []*Job
	for i := 0; i < 2; i++ {
		resp, data := postAnalyze(t, ts, "?async=1", body)
		var acc struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(data, &acc); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %s", i, resp.StatusCode, data)
		}
		j, _ := svc.Job(acc.JobID)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		tiers = append(tiers, j.Snapshot().Tier)
	}
	if tiers[0] != tierSimulated || tiers[1] != tierDisk {
		t.Errorf("tiers %v, want [simulated disk]", tiers)
	}
	if hits, misses := metricValue(t, ts, "gpuscoutd_store_hits_total"), metricValue(t, ts, "gpuscoutd_store_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("store hits %g misses %g, want 1 and 1", hits, misses)
	}
}
