package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/cubin"
	"gpuscout/internal/sass"
)

func postBatch(t *testing.T, ts *httptest.Server, batch BatchRequest) (*http.Response, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/analyze/batch: %v", err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return resp, out
}

// batchKernelSASS builds a tiny valid kernel whose name and immediate
// vary with i, giving each i a distinct input fingerprint while keeping
// the analysis static-only (fast).
func batchKernelSASS(t *testing.T, i int) string {
	t.Helper()
	k := &sass.Kernel{
		Name: fmt.Sprintf("_Z5bat%02dPf", i), Arch: "sm_70", NumRegs: 8, ConstBytes: 0x170,
		SourceFile: "batch.cu",
		Source:     []string{"__global__ void bat(float* x) {", "  x[0] = 1.0f;", "}"},
	}
	ctrl := sass.DefaultCtrl()
	k.Insts = []sass.Inst{
		{Pred: sass.PT, Op: sass.OpMOV, Dst: []sass.Operand{sass.R(0)}, Src: []sass.Operand{sass.Imm(int64(0x1000 + i))}, Ctrl: ctrl, Line: 2},
		{Pred: sass.PT, Op: sass.OpSTG, Mods: []string{"E", "SYS"}, Dst: []sass.Operand{sass.Mem(2, 0)}, Src: []sass.Operand{sass.R(0)}, Ctrl: ctrl, Line: 2},
		{Pred: sass.PT, Op: sass.OpEXIT, Ctrl: ctrl, Line: 3},
	}
	k.RenumberPCs()
	return sass.Print(k)
}

// TestBatchDedupeIdenticalCubins is the acceptance flow for batch
// dedupe: N items carrying byte-identical cubins cost exactly one
// simulation. Every item still gets its own Status entry.
func TestBatchDedupeIdenticalCubins(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	bin := cubin.New("sm_70")
	if err := bin.Add(testKernel(t)); err != nil {
		t.Fatal(err)
	}
	data, err := cubin.Encode(bin)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	batch := BatchRequest{}
	for i := 0; i < n; i++ {
		batch.Requests = append(batch.Requests, AnalyzeRequest{Cubin: data})
	}
	resp, out := postBatch(t, ts, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != n {
		t.Fatalf("got %d results, want %d", len(out.Results), n)
	}
	for i, st := range out.Results {
		if st.State != StateDone {
			t.Fatalf("result %d: state %s (%s)", i, st.State, st.Error)
		}
		if !bytes.Equal(st.Report, out.Results[0].Report) {
			t.Errorf("result %d: report differs from result 0", i)
		}
	}
	if misses := metricValue(t, ts, "gpuscoutd_cache_misses_total"); misses != 1 {
		t.Errorf("cache misses = %g, want 1 (N identical cubins must cost one run)", misses)
	}
	if deduped := metricValue(t, ts, "gpuscoutd_batch_deduped_total"); deduped != n-1 {
		t.Errorf("batch deduped = %g, want %d", deduped, n-1)
	}
	if items := metricValue(t, ts, "gpuscoutd_batch_items_total"); items != n {
		t.Errorf("batch items = %g, want %d", items, n)
	}
}

// TestBatchOrderAndMixedInputs interleaves duplicates of distinct
// kernels and checks the response preserves request order: result i
// must carry the report for the kernel request i named.
func TestBatchOrderAndMixedInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	// 3 distinct kernels, each submitted 3 times, interleaved.
	order := []int{0, 1, 2, 2, 0, 1, 1, 2, 0}
	batch := BatchRequest{}
	for _, k := range order {
		batch.Requests = append(batch.Requests, AnalyzeRequest{SASS: batchKernelSASS(t, k)})
	}
	resp, out := postBatch(t, ts, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != len(order) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(order))
	}
	for i, st := range out.Results {
		if st.State != StateDone {
			t.Fatalf("result %d: state %s (%s)", i, st.State, st.Error)
		}
		wantName := fmt.Sprintf("_Z5bat%02dPf", order[i])
		if !bytes.Contains(st.Report, []byte(wantName)) {
			t.Errorf("result %d: report does not mention %s — order not preserved", i, wantName)
		}
	}
	if misses := metricValue(t, ts, "gpuscoutd_cache_misses_total"); misses != 3 {
		t.Errorf("cache misses = %g, want 3 (one per distinct kernel)", misses)
	}
	if deduped := metricValue(t, ts, "gpuscoutd_batch_deduped_total"); deduped != 6 {
		t.Errorf("batch deduped = %g, want 6", deduped)
	}
}

// TestBatchDedupeKeepsDistinctOptions: items naming the same workload
// but asking for different reports (a sweep and stall slices on one of
// them) must not be folded into one job — the second caller would get
// the plain report and silently lose what it asked for.
func TestBatchDedupeKeepsDistinctOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	resp, out := postBatch(t, ts, BatchRequest{Requests: []AnalyzeRequest{
		{Workload: "transpose_shared", Scale: 64, SampleSMs: 1},
		{Workload: "transpose_shared", Scale: 64, SampleSMs: 1, Sensitivity: true, StallSlices: true},
		{Workload: "transpose_shared", Scale: 64, SampleSMs: 1, TimeoutMS: 60000, SimWorkers: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i, st := range out.Results {
		if st.State != StateDone {
			t.Fatalf("result %d: state %s (%s)", i, st.State, st.Error)
		}
	}
	plain, swept, retimed := out.Results[0], out.Results[1], out.Results[2]
	if bytes.Contains(plain.Report, []byte(`"dominant"`)) {
		t.Error("plain item carries a sensitivity block")
	}
	for _, want := range []string{`"dominant"`, `"stall_slices"`} {
		if !bytes.Contains(swept.Report, []byte(want)) {
			t.Errorf("swept item lost %s: it was served another item's report", want)
		}
	}
	if swept.ID == plain.ID {
		t.Errorf("swept item shares job %s with the plain item", plain.ID)
	}
	// timeout_ms and sim_workers tune how a job runs, not what it
	// computes: that item still folds into the plain one.
	if retimed.ID != plain.ID {
		t.Errorf("item differing only in timeout_ms/sim_workers got its own job %s, want %s", retimed.ID, plain.ID)
	}
	if deduped := metricValue(t, ts, "gpuscoutd_batch_deduped_total"); deduped != 1 {
		t.Errorf("batch deduped = %g, want 1", deduped)
	}
}

// TestBatchEnqueuesEachItemOnce: a batch larger than the queue submits
// each distinct item once and waits for a place, so the journal holds one
// accept and one tombstone per item (plus the startup ID reservation) and
// the items' handles are consecutive — a shed-and-resubmit loop would
// journal an accept and a tombstone for every rejected try.
func TestBatchEnqueuesEachItemOnce(t *testing.T) {
	svc, ts := newStoreServer(t, t.TempDir(), Config{Workers: 1, QueueDepth: 1})
	const n = 6
	var batch BatchRequest
	for i := 0; i < n; i++ {
		batch.Requests = append(batch.Requests, AnalyzeRequest{Workload: "transpose_naive", Scale: 32 * (i + 1), SampleSMs: 1, Sensitivity: true})
	}
	resp, out := postBatch(t, ts, batch)
	if resp.StatusCode != http.StatusOK || len(out.Results) != n {
		t.Fatalf("batch: status %d, %d results", resp.StatusCode, len(out.Results))
	}
	for i, st := range out.Results {
		if st.State != StateDone {
			t.Fatalf("result %d: state %s (%s)", i, st.State, st.Error)
		}
		if want := fmt.Sprintf("j%08d", i+1); st.ID != want {
			t.Errorf("result %d: handle %s, want %s", i, st.ID, want)
		}
	}
	if got, want := svc.cfg.Store.Stats().JournalRecords, 2*n+1; got != want {
		t.Errorf("journal holds %d records, want %d (%d accepts, %d tombstones, 1 ids)", got, want, n, n)
	}
}

// TestBatchItemDeadlineStartsAtEnqueue: an item's timeout_ms runs from
// when it takes a queue place, not from when the batch began waiting for
// one. Every job holds the only worker for 200 ms, so each item spends
// about 400 ms queued and running — inside its 500 ms budget — while the
// batch as a whole takes a second, and a clock started before the wait
// for a place would read 600 ms for the third item on.
func TestBatchItemDeadlineStartsAtEnqueue(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	run := svc.pool.run // set before the first job is sent: the worker reads it after receiving one
	svc.pool.run = func(j *Job) { time.Sleep(200 * time.Millisecond); run(j) }
	var batch BatchRequest
	for i := 0; i < 5; i++ {
		batch.Requests = append(batch.Requests, AnalyzeRequest{Workload: "transpose_naive", Scale: 32 * (i + 1), DryRun: true, TimeoutMS: 500})
	}
	resp, out := postBatch(t, ts, batch)
	if resp.StatusCode != http.StatusOK || len(out.Results) != len(batch.Requests) {
		t.Fatalf("batch: status %d, %d results", resp.StatusCode, len(out.Results))
	}
	for i, st := range out.Results {
		if st.State != StateDone {
			t.Errorf("result %d: state %s (%s), want done", i, st.State, st.Error)
		}
	}
}

// TestCloseWakesWaitingBatchItem: Close does not leave a batch item
// waiting for a queue place until batchEnqueueTimeout; the item reports
// the shutdown.
func TestCloseWakesWaitingBatchItem(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Slow enough that the first item holds the only worker and the
	// second the only place while the third waits.
	var batch BatchRequest
	for _, scale := range []int{512, 528, 544} {
		batch.Requests = append(batch.Requests, AnalyzeRequest{Workload: "sgemm_naive", Scale: scale})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan BatchResponse, 1)
	go func() {
		var out BatchResponse
		if resp, err := http.Post(ts.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body)); err == nil {
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
		}
		done <- out
	}()
	deadline := time.Now().Add(10 * time.Second)
	for lastIssuedID(svc) != "j00000003" || svc.pool.depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the third item never reached the queue (last handle %s, depth %d)", lastIssuedID(svc), svc.pool.depth())
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	svc.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a batch item waiting for a place", took)
	}
	out := <-done
	if len(out.Results) != 3 {
		t.Fatalf("batch: %d results, want 3", len(out.Results))
	}
	if got := out.Results[2]; got.State != StateFailed || got.Error != ErrClosed.Error() {
		t.Errorf("waiting item: state %s error %q, want failed with %q", got.State, got.Error, ErrClosed)
	}
}

// TestBatchValidation covers the batch-level 400/413 paths: empty
// batches, malformed items (failing the whole batch with the offending
// index), and an item count beyond MaxBatchItems.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, MaxBatchItems: 4})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analyze/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(`{"requests":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"requests":[{"workload":"transpose_naive"},{}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid item: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	big := `{"requests":[` + strings.Repeat(`{"workload":"transpose_naive","dry_run":true},`, 4) +
		`{"workload":"transpose_naive","dry_run":true}]}`
	if resp := post(big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
}

// TestHealthzInfoBody pins the /healthz JSON contract the cluster
// tooling reads: version and build info, process mode, worker count,
// and live queue depth.
func TestHealthzInfoBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7, Mode: "worker"})

	var hz struct {
		Status       string  `json:"status"`
		Version      string  `json:"version"`
		Go           string  `json:"go"`
		Mode         string  `json:"mode"`
		Workers      int     `json:"workers"`
		QueueDepth   float64 `json:"queue_depth"`
		CacheEntries float64 `json:"cache_entries"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &hz)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if hz.Status != "ok" {
		t.Errorf("status = %q, want ok", hz.Status)
	}
	if hz.Version != Version {
		t.Errorf("version = %q, want %q", hz.Version, Version)
	}
	if !strings.HasPrefix(hz.Go, "go") {
		t.Errorf("go = %q, want a go version string", hz.Go)
	}
	if hz.Mode != "worker" {
		t.Errorf("mode = %q, want worker", hz.Mode)
	}
	if hz.Workers != 3 {
		t.Errorf("workers = %d, want 3", hz.Workers)
	}
	if hz.QueueDepth != 0 {
		t.Errorf("queue_depth = %g, want 0 on an idle daemon", hz.QueueDepth)
	}
}
