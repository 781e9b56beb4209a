package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/cubin"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// retained is what job retention holds: the registry's entries and the
// creation order pruning walks.
func retained(s *Service) [2]int {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return [2]int{len(s.jobs), len(s.order)}
}

// lastIssuedID is the most recent handle newID issued.
func lastIssuedID(s *Service) string {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	return fmt.Sprintf("j%08d", s.nextID)
}

func postAnalyze(t *testing.T, ts *httptest.Server, query string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/analyze"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/analyze: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// metricValue extracts one sample value from Prometheus text output.
func metricValue(t *testing.T, ts *httptest.Server, sample string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found in:\n%s", sample, body)
	return 0
}

// TestAnalyzeCacheHit is the acceptance flow: the same workload twice,
// second response served from the content-addressed cache.
func TestAnalyzeCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	req := `{"workload":"transpose_naive","dry_run":true}`

	resp, body := postAnalyze(t, ts, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st1 Status
	if err := json.Unmarshal(body, &st1); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first analyze: state=%s cacheHit=%v, want done/false", st1.State, st1.CacheHit)
	}
	if len(st1.Report) == 0 || !bytes.Contains(st1.Report, []byte(`"kernel"`)) {
		t.Fatalf("first analyze: missing report JSON: %.120s", st1.Report)
	}

	resp, body = postAnalyze(t, ts, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st2 Status
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("second analyze: state=%s cacheHit=%v, want done/true", st2.State, st2.CacheHit)
	}
	if !bytes.Equal(st1.Report, st2.Report) {
		t.Error("cached report differs from the original")
	}

	if hits := metricValue(t, ts, "gpuscoutd_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %g, want 1", hits)
	}
	if misses := metricValue(t, ts, "gpuscoutd_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %g, want 1", misses)
	}
	if entries := metricValue(t, ts, "gpuscoutd_cache_entries"); entries != 1 {
		t.Errorf("cache entries = %g, want 1", entries)
	}
}

// TestRuntimeGauges scrapes the Go runtime gauges: the scrape's own
// handler goroutine exists and the heap holds the service, so those two
// are positive; the GC totals exist and are not negative.
func TestRuntimeGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	for _, name := range []string{"gpuscoutd_go_goroutines", "gpuscoutd_go_heap_inuse_bytes"} {
		if v := metricValue(t, ts, name); v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	for _, name := range []string{"gpuscoutd_go_gc_cycles_total", "gpuscoutd_go_gc_pause_seconds_total"} {
		if v := metricValue(t, ts, name); v < 0 {
			t.Errorf("%s = %g, want >= 0", name, v)
		}
	}
}

// TestCacheScaleMiss: a simulated workload at a different problem scale
// must NOT hit the cache — the kernel SASS is identical across scales,
// but the simulated report (grid, traffic, stalls) is not. Regression
// test for the launch fingerprint in CacheKey.
func TestCacheScaleMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	submit := func(scale int) Status {
		t.Helper()
		resp, body := postAnalyze(t, ts, "",
			fmt.Sprintf(`{"workload":"transpose_naive","scale":%d}`, scale))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scale %d: status %d, body %s", scale, resp.StatusCode, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("scale %d: unmarshal: %v", scale, err)
		}
		if st.State != StateDone {
			t.Fatalf("scale %d: state %s, want done", scale, st.State)
		}
		return st
	}

	if st := submit(32); st.CacheHit {
		t.Fatal("first scale-32 run reported a cache hit")
	}
	if st := submit(64); st.CacheHit {
		t.Fatal("scale-64 run hit the scale-32 cache entry — launch fingerprint missing from key")
	}
	if st := submit(32); !st.CacheHit {
		t.Fatal("repeated scale-32 run missed the cache")
	}
	if misses := metricValue(t, ts, "gpuscoutd_cache_misses_total"); misses != 2 {
		t.Errorf("cache misses = %g, want 2", misses)
	}
}

// TestQueueBackpressure fills the bounded queue and expects 429 +
// Retry-After on the next submission.
func TestQueueBackpressure(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Full three-pillar run at a scale that stays in flight long enough
	// for the cancel below to land while the job is still running.
	slow := `{"workload":"sgemm_naive","scale":512}`

	// Job 1: wait until it occupies the single worker.
	resp, body := postAnalyze(t, ts, "?async=1", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d, body %s", resp.StatusCode, body)
	}
	var acc1 struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &acc1); err != nil || acc1.JobID == "" {
		t.Fatalf("job 1 accept body %s: %v", body, err)
	}
	waitForState(t, ts, acc1.JobID, StateRunning)

	// Job 2 fills the queue (depth 1).
	resp, body = postAnalyze(t, ts, "?async=1", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d, body %s", resp.StatusCode, body)
	}

	// Job 3 must be shed with backpressure, and a shed job never existed:
	// its handle names nothing and retention holds what it held.
	before := retained(svc)
	resp, body = postAnalyze(t, ts, "?async=1", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if _, ok := svc.Job(lastIssuedID(svc)); ok {
		t.Errorf("shed job 3 is registered as %s", lastIssuedID(svc))
	}
	if got := retained(svc); got != before {
		t.Errorf("shedding job 3 moved retention (jobs, order) from %v to %v", before, got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if depth := metricValue(t, ts, "gpuscoutd_queue_depth"); depth != 1 {
		t.Errorf("queue depth = %g, want 1", depth)
	}

	// Cancel job 1 via the API; it must reach a terminal cancelled state,
	// freeing the worker for job 2.
	reqDel, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc1.JobID, nil)
	respDel, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	respDel.Body.Close()
	st := waitForTerminal(t, ts, acc1.JobID)
	if st.State != StateCancelled {
		t.Errorf("cancelled job state = %s, want %s", st.State, StateCancelled)
	}
}

// TestJobTimeout: a job whose deadline passes while it waits for a worker
// is never started — it reports state "timeout" and 504. (A deadline that
// passes mid-analysis degrades the report instead: the stage slices.)
func TestJobTimeout(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// Hold the one worker on the first job while the second one waits.
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if resp, body := postAnalyze(t, ts, "?async=1", `{"workload":"transpose_naive","scale":32,"dry_run":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d, want 202 (body %s)", resp.StatusCode, body)
	}
	resp, body := postAnalyze(t, ts, "", `{"workload":"sgemm_naive","timeout_ms":20}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateTimeout {
		t.Errorf("state = %s, want %s", st.State, StateTimeout)
	}
	if st.Error == "" {
		t.Error("timed-out job carries no error message")
	}
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="timeout"}`); n != 1 {
		t.Errorf("timeout counter = %g, want 1", n)
	}
}

// TestOversizedScaleDegradesWithoutAllocating: scale is client input and
// a workload's footprint grows with it (sgemm_naive@8192 is 768 MiB of
// matrices, 1.6 GB resident before the bound existed), so a launch over
// sim.MaxDeviceBytes is refused before any of it is allocated. The job
// still finishes — a static report whose ledger names the bound — on the
// first attempt, and under a deadline the refusal is an error, not a
// timeout.
func TestOversizedScaleDegradesWithoutAllocating(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	resp, body := postAnalyze(t, ts, "", `{"workload":"sgemm_naive","scale":8192,"timeout_ms":2000}`)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (body %s)", resp.StatusCode, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= sim.MaxDeviceBytes {
		t.Errorf("answering the request allocated %d MiB, over the %d MiB bound it was refused for",
			grew>>20, sim.MaxDeviceBytes>>20)
	}
	if elapsed > time.Second {
		t.Errorf("refusal took %v, want a fail-fast answer", elapsed)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateDone || st.Attempts > 1 {
		t.Fatalf("state = %s after %d attempt(s) (error %q), want done on the first", st.State, st.Attempts, st.Error)
	}
	var rep struct {
		DryRun       bool                `json:"dry_run"`
		Degradations []scout.Degradation `json:"degradations"`
	}
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if !rep.DryRun || len(rep.Degradations) != 1 {
		t.Fatalf("report dry_run=%v ledger %+v, want a static report with one entry", rep.DryRun, rep.Degradations)
	}
	if d := rep.Degradations[0]; d.Stage != scout.StageSim || d.Site != "sim.launch" || d.Kind != scout.DegradeError ||
		!strings.Contains(d.Detail, "at most 128 MiB per device") {
		t.Errorf("ledger entry %+v, want sim/sim.launch/error naming the 128 MiB bound", d)
	}
	if n := metricValue(t, ts, `gpuscoutd_degraded_reports_total{kind="sim_error"}`); n != 1 {
		t.Errorf(`degraded_reports_total{kind="sim_error"} = %g, want 1`, n)
	}
	if n := metricValue(t, ts, "gpuscoutd_retries_total"); n != 0 {
		t.Errorf("retries_total = %g, want 0: the refusal is deterministic", n)
	}
}

// TestSimTimeoutDegrades is the staged-deadline acceptance path: a sim
// slice too small for the launch yields
// a degraded static-only report — StateDone, ledger naming sim.launch —
// instead of an empty StateTimeout, and the degradation is visible in
// gpuscoutd_degraded_reports_total{kind="sim_timeout"}.
func TestSimTimeoutDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// 60ms total → ~33ms sim slice: enough to start sgemm_naive's launch,
	// not to finish it; the static pillars fit comfortably.
	resp, body := postAnalyze(t, ts, "", `{"workload":"sgemm_naive","timeout_ms":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want %s (error %q)", st.State, StateDone, st.Error)
	}
	if st.Degradations == 0 {
		t.Fatal("degraded job reports zero ledger entries")
	}
	var rep struct {
		DryRun       bool                `json:"dry_run"`
		Degradations []scout.Degradation `json:"degradations"`
	}
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if !rep.DryRun {
		t.Error("sim-timeout fallback must be a static (dry-run-equivalent) report")
	}
	found := false
	for _, d := range rep.Degradations {
		if d.Stage == scout.StageSim && d.Site == "sim.launch" && d.Kind == scout.DegradeTimeout {
			found = true
		}
	}
	if !found {
		t.Errorf("ledger %+v misses the sim/timeout/sim.launch entry", rep.Degradations)
	}
	if n := metricValue(t, ts, `gpuscoutd_degraded_reports_total{kind="sim_timeout"}`); n != 1 {
		t.Errorf(`degraded_reports_total{kind="sim_timeout"} = %g, want 1`, n)
	}
	if n := metricValue(t, ts, `gpuscoutd_jobs_finished_total{state="timeout"}`); n != 0 {
		t.Errorf("timeout counter = %g, want 0 (job must degrade, not time out)", n)
	}
	// Degraded reports must not poison the cache: the same request again
	// with a generous deadline gets the full dynamic report.
	resp2, body2 := postAnalyze(t, ts, "", `{"workload":"sgemm_naive"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: status %d (body %s)", resp2.StatusCode, body2)
	}
	var st2 Status
	if err := json.Unmarshal(body2, &st2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st2.CacheHit {
		t.Error("degraded report was served from cache")
	}
	var rep2 struct {
		DryRun bool `json:"dry_run"`
	}
	if err := json.Unmarshal(st2.Report, &rep2); err != nil {
		t.Fatalf("unmarshal second report: %v", err)
	}
	if rep2.DryRun {
		t.Error("full-deadline rerun still degraded")
	}
}

// TestAnalyzeSASSUpload posts raw SASS text; the service analyzes it
// statically.
func TestAnalyzeSASSUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	text := sass.Print(testKernel(t))
	reqBody, _ := json.Marshal(AnalyzeRequest{SASS: text})
	resp, body := postAnalyze(t, ts, "", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	var rep struct {
		DryRun bool `json:"dry_run"`
	}
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	if !rep.DryRun {
		t.Error("uploaded SASS must be analyzed as a dry run")
	}
}

// TestFinishedJobReleasesUpload: a retained finished job must not pin
// its SASS/cubin body, and dropping it must not change what the job
// reports about itself.
func TestFinishedJobReleasesUpload(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	k := testKernel(t)
	bin := cubin.New("sm_70")
	if err := bin.Add(k); err != nil {
		t.Fatal(err)
	}
	data, err := cubin.Encode(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  AnalyzeRequest
		want State
	}{
		{"sass", AnalyzeRequest{SASS: sass.Print(k), Arch: "sm_70"}, StateDone},
		{"cubin", AnalyzeRequest{Cubin: data, Kernel: k.Name, Arch: "sm_70"}, StateDone},
		{"corrupt cubin", AnalyzeRequest{Cubin: data[:len(data)/2], Kernel: k.Name}, StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := svc.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			st := j.Snapshot()
			if st.State != tc.want {
				t.Fatalf("state = %s (%s), want %s", st.State, st.Error, tc.want)
			}
			if st.Kernel != tc.req.Kernel || st.Arch != tc.req.Arch || st.Workload != "" {
				t.Errorf("snapshot names = %q/%q/%q, want the request's", st.Workload, st.Kernel, st.Arch)
			}
			if (tc.want == StateDone) != (len(st.Report) > 0) {
				t.Errorf("report presence does not match state %s (%d bytes)", st.State, len(st.Report))
			}
			if j.req.SASS != "" || j.req.Cubin != nil {
				t.Errorf("finished job still holds its upload (%d B sass, %d B cubin)", len(j.req.SASS), len(j.req.Cubin))
			}
		})
	}
}

// TestAnalyzeCubinUpload round-trips a kernel through the cubin codec and
// the HTTP API, including the corrupt-input path.
func TestAnalyzeCubinUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	bin := cubin.New("sm_70")
	if err := bin.Add(testKernel(t)); err != nil {
		t.Fatal(err)
	}
	data, err := cubin.Encode(bin)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, _ := json.Marshal(AnalyzeRequest{Cubin: data})
	resp, body := postAnalyze(t, ts, "", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}

	// Corrupt cubin: the job must fail with a descriptive error, not 500.
	reqBody, _ = json.Marshal(AnalyzeRequest{Cubin: data[:len(data)/2]})
	resp, body = postAnalyze(t, ts, "", string(reqBody))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt cubin: status %d, body %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "cubin") {
		t.Errorf("corrupt cubin: state=%s error=%q", st.State, st.Error)
	}
}

// TestRequestValidation exercises the 400 paths.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, body := range []string{
		`{}`, // no source
		`{"workload":"transpose_naive","sass":"x"}`, // two sources
		`{"workload":"transpose_naive","scale":-1}`,
		`{"kernel":"k","workload":"transpose_naive"}`, // kernel without cubin
		`{"unknown_field":1}`,
		`not json`,
	} {
		resp, _ := postAnalyze(t, ts, "", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown workload fails at build time (the request shape is valid).
	resp, body := postAnalyze(t, ts, "", `{"workload":"nope"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown workload: status %d, body %s", resp.StatusCode, body)
	}
}

// TestEndpoints covers workloads, healthz, job lookup misses.
func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	var wl struct {
		Workloads []string `json:"workloads"`
	}
	getJSON(t, ts.URL+"/v1/workloads", &wl)
	if len(wl.Workloads) == 0 {
		t.Error("no workloads listed")
	}
	found := false
	for _, n := range wl.Workloads {
		if n == "sgemm_naive" {
			found = true
		}
	}
	if !found {
		t.Errorf("sgemm_naive missing from %v", wl.Workloads)
	}

	var hz struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz: %d %q", resp.StatusCode, hz.Status)
	}

	if resp := getJSON(t, ts.URL+"/v1/jobs/j99999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

func waitForState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State == want || st.State.Terminal() {
			if st.State != want {
				t.Fatalf("job %s reached %s while waiting for %s (%s)", id, st.State, want, st.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func waitForTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		getJSON(t, ts.URL+"/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return Status{}
}

// testKernel builds a small valid kernel for upload tests.
func testKernel(t *testing.T) *sass.Kernel {
	t.Helper()
	k := &sass.Kernel{
		Name: "_Z4tinyPf", Arch: "sm_70", NumRegs: 8, ConstBytes: 0x170,
		SourceFile: "tiny.cu",
		Source:     []string{"__global__ void tiny(float* x) {", "  x[0] = 1.0f;", "}"},
	}
	ctrl := sass.DefaultCtrl()
	k.Insts = []sass.Inst{
		{Pred: sass.PT, Op: sass.OpMOV, Dst: []sass.Operand{sass.R(0)}, Src: []sass.Operand{sass.Imm(0x3f800000)}, Ctrl: ctrl, Line: 2},
		{Pred: sass.PT, Op: sass.OpSTG, Mods: []string{"E", "SYS"}, Dst: []sass.Operand{sass.Mem(2, 0)}, Src: []sass.Operand{sass.R(0)}, Ctrl: ctrl, Line: 2},
		{Pred: sass.PT, Op: sass.OpEXIT, Ctrl: ctrl, Line: 3},
	}
	k.RenumberPCs()
	return k
}

// TestSimWorkersPlumbing: sim_workers reaches the simulator (the job
// completes, the per-launch sim metrics are observed), and a follow-up
// request differing only in sim_workers is served from the cache —
// worker count is deliberately absent from the cache key because
// results are worker-invariant.
func TestSimWorkersPlumbing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	resp, body := postAnalyze(t, ts, "", `{"workload":"transpose_naive","scale":32,"sim_workers":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st1 Status
	if err := json.Unmarshal(body, &st1); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first analyze: state=%s cacheHit=%v, want done/false (err %q)", st1.State, st1.CacheHit, st1.Error)
	}
	if n := metricValue(t, ts, "gpuscoutd_sim_speedup_count"); n < 1 {
		t.Errorf("sim speedup observations = %g, want >= 1", n)
	}
	if n := metricValue(t, ts, "gpuscoutd_sim_wall_seconds_count"); n < 1 {
		t.Errorf("sim wall-time observations = %g, want >= 1", n)
	}
	if v := metricValue(t, ts, "gpuscoutd_sim_workers_default"); v != 1 {
		t.Errorf("sim workers default = %g, want 1", v)
	}

	resp, body = postAnalyze(t, ts, "", `{"workload":"transpose_naive","scale":32,"sim_workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: status %d, body %s", resp.StatusCode, body)
	}
	var st2 Status
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("second analyze: state=%s cacheHit=%v, want done/true — sim_workers must not change the cache key", st2.State, st2.CacheHit)
	}
	if !bytes.Equal(st1.Report, st2.Report) {
		t.Error("report differs across sim_workers values")
	}
}

// TestSimWorkersValidation rejects negative sim_workers.
func TestSimWorkersValidation(t *testing.T) {
	req := AnalyzeRequest{Workload: "transpose_naive", SimWorkers: -1}
	if err := req.Validate(); err == nil {
		t.Error("negative sim_workers accepted")
	}
}

// TestPruneEvictsOldestFinishedFirst drives the job registry to three
// times its retention cap, with a few jobs that never finish interleaved,
// and checks after every admit that the retained set is what the rule
// says — over the cap, finished jobs go oldest first and a queued or
// running job never goes — against a whole-list scan of that rule kept
// here as the reference.
func TestPruneEvictsOldestFinishedFirst(t *testing.T) {
	const retain = 16
	svc, _ := newTestServer(t, Config{Workers: 1, MaxJobsRetained: retain})
	req := AnalyzeRequest{Workload: "transpose_naive", DryRun: true}

	type entry struct {
		id   string
		done bool
	}
	var model []entry
	for n := 1; n <= 3*retain; n++ {
		id := fmt.Sprintf("t%04d", n)
		j := svc.admit(id, req, req.Fingerprint())
		svc.register(j) // prunes with the new job still queued
		model = append(model, entry{id: id})
		over := len(model) - retain
		kept := model[:0]
		for _, m := range model {
			if over > 0 && m.done {
				over--
				continue
			}
			kept = append(kept, m)
		}
		model = kept

		svc.jobsMu.Lock()
		if len(svc.order) != len(svc.jobs) || len(svc.order) != len(model) {
			t.Fatalf("after %s: %d order entries, %d jobs, reference holds %d", id, len(svc.order), len(svc.jobs), len(model))
		}
		for i, m := range model {
			if _, ok := svc.jobs[m.id]; !ok || svc.order[i] != m.id {
				t.Fatalf("after %s: position %d holds %s (registered %v), reference holds %s", id, i, svc.order[i], ok, m.id)
			}
		}
		svc.jobsMu.Unlock()

		if n%5 != 2 { // every fifth job is long-running: it stays queued to the end
			j.finish(StateDone, nil, "", "")
			model[len(model)-1].done = true
		}
	}
	for n := 2; n <= 3*retain; n += 5 {
		if _, ok := svc.Job(fmt.Sprintf("t%04d", n)); !ok {
			t.Errorf("live job t%04d was evicted", n)
		}
	}
}
