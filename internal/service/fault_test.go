package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/cubin"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/scout"
)

// corruptCubinBody returns an analyze request whose cubin decodes partway
// and then fails — a deterministic (non-transient) poison input.
func corruptCubinBody(t *testing.T) string {
	t.Helper()
	bin := cubin.New("sm_70")
	if err := bin.Add(testKernel(t)); err != nil {
		t.Fatal(err)
	}
	data, err := cubin.Encode(bin)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(AnalyzeRequest{Cubin: data[:len(data)/2]})
	return string(body)
}

// TestQuarantine is the acceptance path: a fingerprint that fails twice
// returns 422 immediately on the third submission without occupying a
// worker, and clears after the breaker's cool-down.
func TestQuarantine(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		QuarantineAfter:    2,
		QuarantineCooldown: 150 * time.Millisecond,
	})
	body := corruptCubinBody(t)

	for i := 1; i <= 2; i++ {
		resp, b := postAnalyze(t, ts, "", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("submission %d: status %d, body %s", i, resp.StatusCode, b)
		}
	}
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="failed"}`); n != 2 {
		t.Fatalf("failed jobs = %g, want 2", n)
	}

	// Third submission: rejected at Submit — no new job runs.
	resp, b := postAnalyze(t, ts, "", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined submission: status %d, body %s", resp.StatusCode, b)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &errResp); err != nil || errResp.Error == "" {
		t.Fatalf("quarantine response carries no error: %s", b)
	}
	if n := metricValue(t, ts, `gpuscoutd_quarantined_total`); n != 1 {
		t.Errorf("quarantined_total = %g, want 1", n)
	}
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="failed"}`); n != 2 {
		t.Errorf("failed jobs = %g after quarantine rejection, want still 2", n)
	}

	// After the cool-down the breaker admits a probe, which runs (and
	// fails) on a worker again.
	time.Sleep(200 * time.Millisecond)
	resp, b = postAnalyze(t, ts, "", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("post-cooldown submission: status %d, body %s", resp.StatusCode, b)
	}
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="failed"}`); n != 3 {
		t.Errorf("failed jobs = %g after cool-down probe, want 3", n)
	}
}

// TestRetryTransient: a single-shot injected fault fails the first
// attempt; the retry succeeds and the job finishes clean, with the retry
// visible in the job status and gpuscoutd_retries_total. An arch_compare
// job resolves under the same parse guard and fault site, so it obeys
// the same contract.
func TestRetryTransient(t *testing.T) {
	for name, body := range map[string]string{
		"plain":        `{"workload":"transpose_naive","scale":32}`,
		"arch_compare": `{"workload":"transpose_naive","scale":32,"arch_compare":"sm80"}`,
	} {
		t.Run(name, func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			_, ts := newTestServer(t, Config{
				Workers: 1, QueueDepth: 4,
				RetryAttempts: 2, RetryBackoff: time.Millisecond,
			})
			arm := func(times int) {
				t.Helper()
				if _, err := faultinject.Arm(faultinject.Fault{
					Site: "service.resolve", Mode: faultinject.ModeError, Times: times,
				}); err != nil {
					t.Fatal(err)
				}
			}
			analyze := func() (int, Status) {
				t.Helper()
				resp, data := postAnalyze(t, ts, "", body)
				var st Status
				if err := json.Unmarshal(data, &st); err != nil {
					t.Fatalf("status %d, non-status body %s", resp.StatusCode, data)
				}
				return resp.StatusCode, st
			}

			arm(1)
			code, st := analyze()
			if code != http.StatusOK || st.State != StateDone {
				t.Fatalf("status %d, state = %s (%s), want 200/done", code, st.State, st.Error)
			}
			if st.Attempts != 2 {
				t.Errorf("attempts = %d, want 2", st.Attempts)
			}
			if n := metricValue(t, ts, `gpuscoutd_retries_total`); n != 1 {
				t.Errorf("retries_total = %g, want 1", n)
			}

			// A fault that outlasts the retries fails the job with the
			// typed, site-attributed parse-stage error. (The first run's
			// report is cached, but resolve runs before the cache probe.)
			arm(2)
			code, st = analyze()
			if code != http.StatusUnprocessableEntity || st.State != StateFailed {
				t.Fatalf("status %d, state = %s, want 422/failed", code, st.State)
			}
			if want := "stage parse: service.resolve:"; !strings.HasPrefix(st.Error, want) {
				t.Errorf("error = %q, want prefix %q", st.Error, want)
			}
		})
	}
}

// TestVerifyTimeoutShipsUnverified: a delay fault makes the verify slice
// expire; the findings ship unverified with the loss in the ledger, the
// job still finishes StateDone, and the degradation is visible in
// gpuscoutd_degraded_reports_total{kind="verify_timeout"}.
func TestVerifyTimeoutShipsUnverified(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// timeout 2s → verify slice 500ms; the armed delay overshoots it.
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: "advisor.verify", Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	resp, body := postAnalyze(t, ts, "",
		`{"workload":"histogram_global","scale":4,"verify":true,"timeout_ms":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	var rep struct {
		Degradations []scout.Degradation `json:"degradations"`
		Findings     []struct {
			Analysis     string          `json:"analysis"`
			Verification json.RawMessage `json:"verification"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	found := false
	for _, d := range rep.Degradations {
		if d.Stage == scout.StageVerify && d.Kind == scout.DegradeTimeout {
			found = true
		}
	}
	if !found {
		t.Fatalf("ledger %+v misses a verify/timeout entry", rep.Degradations)
	}
	for _, f := range rep.Findings {
		if f.Analysis == "shared_atomics" && len(f.Verification) > 0 {
			t.Error("finding verified despite the verify slice expiring")
		}
	}
	if n := metricValue(t, ts, `gpuscoutd_degraded_reports_total{kind="verify_timeout"}`); n != 1 {
		t.Errorf(`degraded_reports_total{kind="verify_timeout"} = %g, want 1`, n)
	}
}

// TestSweepTimeoutShipsPartial mirrors the verify contract for the
// sensitivity sweep: a delay fault makes the sweep's budget slice expire
// mid-matrix; the skipped perturbations land in the ledger as timeout
// degradations, the report still ships, and the job finishes StateDone.
// An arch_compare job runs the same pipeline per target, so it ships the
// same partial matrix, ticks the same degraded-report counter, and feeds
// the same sweep histogram.
func TestSweepTimeoutShipsPartial(t *testing.T) {
	for name, body := range map[string]string{
		"plain":        `{"workload":"histogram_global","scale":4,"sensitivity":true,"timeout_ms":2000}`,
		"arch_compare": `{"workload":"histogram_global","scale":4,"arch_compare":"sm80","sensitivity":true,"timeout_ms":2000}`,
	} {
		t.Run(name, func(t *testing.T) {
			faultinject.Reset()
			t.Cleanup(faultinject.Reset)
			_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
			// timeout 2s → sweep slice 500ms; the armed delay overshoots it
			// on the first matrix entry (of the base target).
			disarm, err := faultinject.Arm(faultinject.Fault{
				Site: "advisor.sweep", Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, Times: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()

			resp, data := postAnalyze(t, ts, "", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, body %s", resp.StatusCode, data)
			}
			var st Status
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if st.State != StateDone {
				t.Fatalf("state = %s (%s), want done", st.State, st.Error)
			}
			// A plain report carries its ledger at the top level, a
			// comparison inside each of its two full reports.
			type ledger struct {
				Degradations []scout.Degradation `json:"degradations"`
			}
			var rep struct {
				ledger
				Base, Other *ledger
			}
			if err := json.Unmarshal(st.Report, &rep); err != nil {
				t.Fatalf("unmarshal report: %v", err)
			}
			entries := rep.Degradations
			if name == "arch_compare" {
				if rep.Base == nil || rep.Other == nil {
					t.Fatalf("comparison lacks its two reports: %.200s", st.Report)
				}
				entries = append(rep.Base.Degradations, rep.Other.Degradations...)
			}
			timeouts := 0
			for _, d := range entries {
				if d.Site == "advisor.sweep" && d.Kind == scout.DegradeTimeout {
					timeouts++
				}
			}
			if timeouts == 0 {
				t.Fatalf("ledger %+v misses sweep timeout entries", entries)
			}
			if st.Degradations != len(entries) {
				t.Errorf("status degradations = %d, ledger has %d", st.Degradations, len(entries))
			}
			if n := metricValue(t, ts, `gpuscoutd_degraded_reports_total{kind="verify_timeout"}`); n != 1 {
				t.Errorf(`degraded_reports_total{kind="verify_timeout"} = %g, want 1`, n)
			}
			if n := metricValue(t, ts, `gpuscoutd_stage_seconds_count{stage="sweep"}`); n == 0 {
				t.Error(`stage_seconds{stage="sweep"} never observed the job's sweep`)
			}
		})
	}
}

// TestDetectorPanicDropsOnlyItsFindings: an injected panic in one
// detector drops that detector's findings, keeps everyone else's, and
// records exactly one panic ledger entry.
func TestDetectorPanicDropsOnlyItsFindings(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	site := scout.DetectorSite("shared_atomics")
	disarm, err := faultinject.Arm(faultinject.Fault{Site: site, Mode: faultinject.ModePanic, Times: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	resp, body := postAnalyze(t, ts, "", `{"workload":"histogram_global","scale":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	var rep struct {
		Degradations []scout.Degradation `json:"degradations"`
		Findings     []struct {
			Analysis string `json:"analysis"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	for _, f := range rep.Findings {
		if f.Analysis == "shared_atomics" {
			t.Error("panicking detector's findings survived")
		}
	}
	if len(rep.Degradations) != 1 || rep.Degradations[0].Site != site ||
		rep.Degradations[0].Kind != scout.DegradePanic || rep.Degradations[0].Stage != scout.StageScout {
		t.Errorf("ledger = %+v, want exactly one scout/panic entry at %s", rep.Degradations, site)
	}
	if n := metricValue(t, ts, `gpuscoutd_stage_panics_total{stage="scout"}`); n != 1 {
		t.Errorf(`stage_panics_total{stage="scout"} = %g, want 1`, n)
	}
}

// TestReadyzFlipsOnShutdown: /readyz serves 200 while accepting work and
// 503 once BeginShutdown is called; /healthz stays 200 throughout.
func TestReadyzFlipsOnShutdown(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("/readyz before shutdown: %d, want 200", c)
	}
	svc.BeginShutdown()
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain: %d, want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Errorf("/healthz during drain: %d, want 200 (liveness is not readiness)", c)
	}
}

// TestRetryAfterComputed: the backpressure header is a live estimate in
// [1, 30], not the old hardcoded "1".
func TestRetryAfterComputed(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Pre-load the duration ring so the estimate has data: 4s mean with a
	// full queue of 1 must push Retry-After well past 1s.
	for i := 0; i < 4; i++ {
		svc.durations.record(4 * time.Second)
	}
	// Stall the worker so submissions pile up deterministically.
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 250 * time.Millisecond, Times: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	// Fill the worker and the queue, then trip 429.
	for i := 0; i < 8; i++ {
		resp, _ := postAnalyze(t, ts, "?async=1", `{"workload":"transpose_naive","scale":32}`)
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil {
				t.Fatalf("Retry-After %q is not an integer", ra)
			}
			if secs < 1 || secs > 30 {
				t.Fatalf("Retry-After = %d, want within [1, 30]", secs)
			}
			if secs < 4 {
				t.Errorf("Retry-After = %d, want >= 4 (mean 4s, queue full, 1 worker)", secs)
			}
			return
		}
	}
	t.Fatal("queue never filled; 429 path not exercised")
}

// TestCancelVsDeadlineRace: when an explicit Cancel() races the context
// deadline, the job deterministically reports cancelled (userAbort), in
// both orderings.
func TestCancelVsDeadlineRace(t *testing.T) {
	// Ordering 1: deadline expires first, Cancel arrives before the
	// worker classifies the interruption.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	j := newJob("j1", AnalyzeRequest{Workload: "x"}, ctx, cancel)
	<-ctx.Done()
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("ctx.Err() = %v, want DeadlineExceeded", ctx.Err())
	}
	j.Cancel()
	if st := j.interrupted(); st != StateCancelled {
		t.Errorf("deadline-then-cancel: interrupted() = %s, want %s", st, StateCancelled)
	}

	// Ordering 2: Cancel first, deadline expires while the job is still
	// unfinished.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	j2 := newJob("j2", AnalyzeRequest{Workload: "x"}, ctx2, cancel2)
	j2.Cancel()
	time.Sleep(15 * time.Millisecond)
	if st := j2.interrupted(); st != StateCancelled {
		t.Errorf("cancel-then-deadline: interrupted() = %s, want %s", st, StateCancelled)
	}

	// Control: a pure deadline expiry (no Cancel) reports timeout.
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Nanosecond)
	j3 := newJob("j3", AnalyzeRequest{Workload: "x"}, ctx3, cancel3)
	defer cancel3()
	<-ctx3.Done()
	if st := j3.interrupted(); st != StateTimeout {
		t.Errorf("pure deadline: interrupted() = %s, want %s", st, StateTimeout)
	}
}
