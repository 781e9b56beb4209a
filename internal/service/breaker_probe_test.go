package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
)

// TestBreakerHalfOpenSingleProbe hammers an open breaker just past its
// cool-down from many goroutines: exactly one caller wins the half-open
// probe slot, every loser gets a typed rejection, and the slot's
// lifecycle (failure verdict, interruption, success) behaves.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := newBreaker(1, 10*time.Millisecond)
	const fp = "fp-poison"
	b.recordFailure(fp, "boom")
	time.Sleep(15 * time.Millisecond) // cool-down elapses; breaker is half-open

	const n = 32
	var wg sync.WaitGroup
	admitted := make(chan struct{}, n)
	rejected := make(chan error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if probe, err := b.check(fp); err == nil && probe {
				admitted <- struct{}{}
			} else {
				rejected <- err
			}
		}()
	}
	wg.Wait()
	close(admitted)
	close(rejected)
	if got := len(admitted); got != 1 {
		t.Fatalf("%d concurrent probes admitted, want exactly 1", got)
	}
	for err := range rejected {
		var qe *QuarantineError
		if !errors.As(err, &qe) || !errors.Is(err, ErrQuarantined) {
			t.Fatalf("loser got untyped rejection: %v", err)
		}
		if qe.RetryAfter <= 0 {
			t.Errorf("loser RetryAfter = %v, want > 0", qe.RetryAfter)
		}
	}

	// The probe's failure re-opens the breaker for a full cool-down.
	b.recordFailure(fp, "still broken")
	if _, err := b.check(fp); err == nil {
		t.Fatal("breaker admitted a submission immediately after a failed probe")
	}
	time.Sleep(15 * time.Millisecond)

	// An interrupted probe (cancelled, timed out) must free the slot via
	// release — otherwise the breaker wedges open forever.
	if probe, err := b.check(fp); err != nil || !probe {
		t.Fatalf("post-cooldown probe: probe %t, err %v; want admitted as the probe", probe, err)
	}
	if _, err := b.check(fp); err == nil {
		t.Fatal("second probe admitted while the first is in flight")
	}
	b.release(fp)
	if _, err := b.check(fp); err != nil {
		t.Fatalf("probe slot not freed by release: %v", err)
	}

	// A successful probe clears the entry entirely.
	if !b.recordSuccess(fp) {
		t.Fatal("recordSuccess reported no entry")
	}
	if _, err := b.check(fp); err != nil {
		t.Fatalf("cleared fingerprint still rejected: %v", err)
	}
}

// TestQuarantineHalfOpenConcurrentProbes drives the same race through
// the HTTP surface: a thundering herd resubmitting a quarantined input
// right after the cool-down burns exactly one worker — one probe job
// runs, every other client gets 422 with a Retry-After header.
func TestQuarantineHalfOpenConcurrentProbes(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, QueueDepth: 16,
		RetryAttempts:      1,
		QuarantineAfter:    1,
		QuarantineCooldown: 100 * time.Millisecond,
	})
	body := corruptCubinBody(t)

	// Open the breaker: the poison input runs once and fails.
	resp, b := postAnalyze(t, ts, "", body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("poison submission: status %d, body %s", resp.StatusCode, b)
	}
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="failed"}`); n != 1 {
		t.Fatalf("failed jobs = %g, want 1", n)
	}
	time.Sleep(150 * time.Millisecond) // cool-down elapses

	// The herd: concurrent resubmissions against the half-open breaker.
	const herd = 8
	type result struct {
		status     int
		retryAfter string
		body       []byte
	}
	results := make([]result, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			resp, data := postAnalyze(t, ts, "", body)
			results[i] = result{resp.StatusCode, resp.Header.Get("Retry-After"), data}
		}(i)
	}
	wg.Wait()

	probes, rejections := 0, 0
	for i, r := range results {
		if r.status != http.StatusUnprocessableEntity {
			t.Fatalf("herd %d: status %d, want 422", i, r.status)
		}
		// The one admitted probe ran a job and returns its failed
		// snapshot; rejected clients get an error body with Retry-After.
		if strings.Contains(string(r.body), `"state"`) {
			probes++
			continue
		}
		rejections++
		var errResp struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(r.body, &errResp); err != nil || !strings.Contains(errResp.Error, "quarantined") {
			t.Errorf("herd %d: rejection body %s", i, r.body)
		}
		if r.retryAfter == "" {
			t.Errorf("herd %d: rejection carries no Retry-After header", i)
		}
	}
	if probes != 1 || rejections != herd-1 {
		t.Fatalf("herd outcome: %d probes, %d rejections; want exactly 1 probe, %d rejections",
			probes, rejections, herd-1)
	}
	// The worker-burn accounting agrees: exactly one more failed job.
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="failed"}`); n != 2 {
		t.Errorf("failed jobs = %g after the herd, want 2 (one probe)", n)
	}
	if n := metricValue(t, ts, `gpuscoutd_quarantined_total`); n != herd-1 {
		t.Errorf("quarantined_total = %g, want %d", n, herd-1)
	}
}

// TestBreakerStaysBounded: the breaker's map and its persisted form hold
// what can still decide a submission, not every input that ever failed.
// A stream of distinct one-shot failures (each followed by the export
// execute makes after a failed job) keeps about one cool-down's worth of
// entries; an open entry nobody resubmits is forgotten after
// forgetOpenAfter cool-downs; and a persisted open entry still inside
// that window survives the load and the next export.
func TestBreakerStaysBounded(t *testing.T) {
	const cooldown = time.Millisecond
	b := newBreaker(2, cooldown)
	var persisted []byte
	for i := 0; i < 10000; i++ {
		b.recordFailure(fmt.Sprintf("upload-%05d", i), "parse SASS: unexpected token")
		persisted = b.exportJSON()
	}
	b.mu.Lock()
	n := len(b.entries)
	b.mu.Unlock()
	if n > 1000 || len(persisted) > 1000*200 {
		t.Errorf("10000 distinct one-shot failures left %d entries and a %d-byte breaker.json", n, len(persisted))
	}

	b.recordFailure("poison", "boom")
	b.recordFailure("poison", "boom")
	if _, err := b.check("poison"); err == nil {
		t.Fatal("two consecutive failures did not open the breaker")
	}
	time.Sleep((forgetOpenAfter + 5) * cooldown)
	b.exportJSON()
	b.mu.Lock()
	_, kept := b.entries["poison"]
	b.mu.Unlock()
	if kept {
		t.Errorf("an open entry unprobed for %d cool-downs was kept", forgetOpenAfter)
	}

	loaded := newBreaker(2, time.Hour)
	loaded.importJSON([]byte(`{"poison":{"failures":2,"last_err":"boom","opened_at":"` +
		time.Now().Format(time.RFC3339Nano) + `"}}`))
	loaded.exportJSON()
	if _, err := loaded.check("poison"); !errors.Is(err, ErrQuarantined) {
		t.Errorf("a loaded open entry: check = %v, want quarantined", err)
	}
}

// TestRefusalReleasesProbe: a submission admitted as a quarantined
// fingerprint's half-open probe and then refused — the queue is full,
// the store is dead, the service is shutting down — frees the probe
// slot. Otherwise the fingerprint is refused as quarantined until a
// restart: here, the next submission once a queue place frees is
// admitted as the probe.
func TestRefusalReleasesProbe(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	const cooldown = 50 * time.Millisecond
	cfg := Config{Workers: 1, QueueDepth: 1, RetryAttempts: 1, QuarantineAfter: 1, QuarantineCooldown: cooldown}
	poison := AnalyzeRequest{Cubin: []byte("not a cubin at all")}
	// quarantine fails poison once and waits out the cool-down.
	quarantine := func(t *testing.T, svc *Service) {
		t.Helper()
		j, err := svc.Submit(poison)
		if err != nil {
			t.Fatal(err)
		}
		if <-j.Done(); j.StateNow() != StateFailed {
			t.Fatalf("poison: state %s, want failed", j.StateNow())
		}
		time.Sleep(2 * cooldown)
	}
	released := func(t *testing.T, svc *Service, refusal error) {
		t.Helper()
		if e, ok := breakerEntryOf(svc, poison.Fingerprint()); !ok || e.probing {
			t.Errorf("after a %v refusal the breaker entry (kept %t) is %+v, want it kept and not probing", refusal, ok, e)
		}
	}

	t.Run("queue full", func(t *testing.T) {
		svc, _ := newTestServer(t, cfg)
		quarantine(t, svc)
		// Hold the one worker and take the one queue place.
		if _, err := faultinject.Arm(faultinject.Fault{
			Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Times: 1,
		}); err != nil {
			t.Fatal(err)
		}
		held, err := svc.Submit(AnalyzeRequest{Workload: "transpose_naive", Scale: 32, DryRun: true})
		if err != nil {
			t.Fatal(err)
		}
		for held.StateNow() != StateRunning {
			time.Sleep(time.Millisecond)
		}
		queued, err := svc.Submit(AnalyzeRequest{Workload: "jacobi_naive", Scale: 32, DryRun: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(poison); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("probe with the queue full: err = %v, want ErrQueueFull", err)
		}
		released(t, svc, ErrQueueFull)
		<-queued.Done()
		j, err := svc.Submit(poison)
		if err != nil {
			t.Fatalf("the next submission once a place frees: %v, want it admitted as the probe", err)
		}
		<-j.Done()
	})
	t.Run("dead store", func(t *testing.T) {
		svc, _ := newStoreServer(t, t.TempDir(), cfg)
		quarantine(t, svc)
		svc.cfg.Store.Close()
		if _, err := svc.Submit(poison); !errors.Is(err, ErrDurability) {
			t.Fatalf("probe on a dead store: err = %v, want ErrDurability", err)
		}
		released(t, svc, ErrDurability)
	})
	t.Run("closed", func(t *testing.T) {
		svc, _ := newTestServer(t, cfg)
		quarantine(t, svc)
		svc.Close()
		if _, err := svc.Submit(poison); !errors.Is(err, ErrClosed) {
			t.Fatalf("probe on a closed service: err = %v, want ErrClosed", err)
		}
		released(t, svc, ErrClosed)
	})
}
