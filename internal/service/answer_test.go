package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestAnswerIsStoredBytes: a report has one byte form, and the status
// document around it is the one WriteJSON writes.
func TestAnswerIsStoredBytes(t *testing.T) {
	t.Run("every path", answerPathsAgree)
	t.Run("goldens", statusEncoderMatchesWriteJSON)
}

// answerPathsAgree: the sync answer's report member, GET /v1/jobs/{id}, a
// batch item, the memory-cache entry, a peer's cache-fill body, and after
// a restart the store's entry and the answer served from it are all the
// bytes MarshalJSON produced on the miss — for a request with every
// re-execution pass on.
func answerPathsAgree(t *testing.T) {
	const body = `{"workload":"transpose_naive","scale":32,"sample_sms":1,"verify":true,"sensitivity":true,"stall_slices":true}`
	var req AnalyzeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	plans, err := Resolve(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(plans)

	dir := t.TempDir()
	svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	resp, raw := postAnalyze(t, ts, "", body)
	var sync Status
	if err := json.Unmarshal(raw, &sync); err != nil || resp.StatusCode != http.StatusOK || sync.State != StateDone {
		t.Fatalf("analyze: status %d, body %.300s", resp.StatusCode, raw)
	}
	report := sync.Report
	if sync.CacheHit || len(report) == 0 {
		t.Fatalf("analyze: cache_hit=%v with %d report bytes, want a miss with a report", sync.CacheHit, len(report))
	}
	// Spliced, not re-encoded: the answer ends with the report verbatim.
	if tail := []byte("\"report\": " + string(report) + "\n}\n"); !bytes.HasSuffix(raw, tail) {
		t.Errorf("the answer does not end with the report member spliced verbatim")
	}

	forms := map[string][]byte{}
	var job Status
	getJSON(t, ts.URL+"/v1/jobs/"+sync.ID, &job)
	forms["GET /v1/jobs/{id}"] = job.Report

	bresp, err := http.Post(ts.URL+"/v1/analyze/batch", "application/json", strings.NewReader(`{"requests":[`+body+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	err = json.NewDecoder(bresp.Body).Decode(&batch)
	bresp.Body.Close()
	if err != nil || len(batch.Results) != 1 || !batch.Results[0].CacheHit {
		t.Fatalf("batch: %v, %d results", err, len(batch.Results))
	}
	forms["batch item"] = batch.Results[0].Report

	forms["memory cache"], _ = svc.cache.get(key)

	presp, err := http.Get(ts.URL + "/internal/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	forms["peer cache-fill body"], _ = io.ReadAll(presp.Body)
	presp.Body.Close()

	ts.Close()
	svc.Close()
	svc.cfg.Store.Close()
	svc2, ts2 := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	waitRecovered(t, svc2)
	forms["store entry after a restart"], _ = svc2.cfg.Store.GetReport(key)
	disk := analyzeOK(t, ts2, body)
	if !disk.CacheHit {
		t.Error("after a restart: cache_hit=false, want a store hit")
	}
	forms["answer from the store"] = disk.Report

	for _, name := range []string{"GET /v1/jobs/{id}", "batch item", "memory cache", "peer cache-fill body",
		"store entry after a restart", "answer from the store"} {
		if !bytes.Equal(forms[name], report) {
			t.Errorf("%s: %d bytes that differ from the sync answer's %d-byte report", name, len(forms[name]), len(report))
		}
	}
}

// statusEncoderMatchesWriteJSON: for every golden report, the spliced
// status document decodes strictly into the same Status as WriteJSON's
// re-encoded one, and the two bodies differ only in the report member's
// continuation lines, which WriteJSON shifts by the member's nesting
// depth. A status without a report is WriteJSON's body byte for byte.
func statusEncoderMatchesWriteJSON(t *testing.T) {
	var paths []string
	for _, pat := range []string{"*.json", "sm80/*.json"} {
		m, err := filepath.Glob(filepath.Join("..", "advisor", "testdata", "golden", pat))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) != 48 {
		t.Fatalf("found %d golden JSON documents, want 48", len(paths))
	}

	created := time.Date(2024, 5, 1, 12, 0, 0, 123456789, time.UTC)
	started, finished := created.Add(time.Millisecond), created.Add(time.Second)
	encode := func(write func(http.ResponseWriter)) []byte {
		rec := httptest.NewRecorder()
		write(rec)
		return rec.Body.Bytes()
	}
	decode := func(name string, body []byte) Status {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var st Status
		if err := dec.Decode(&st); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if dec.More() {
			t.Fatalf("%s: trailing data after the status document", name)
		}
		return st
	}

	failed := Status{ID: "j00000002", State: StateFailed, Workload: "sgemm_naive", Error: `stage sim: <boom> & "quoted"`,
		Attempts: 2, CreatedAt: created, FinishedAt: &finished}
	want := encode(func(w http.ResponseWriter) { WriteJSON(w, http.StatusUnprocessableEntity, failed) })
	if got := encode(func(w http.ResponseWriter) { writeStatus(w, http.StatusUnprocessableEntity, failed) }); !bytes.Equal(got, want) {
		t.Errorf("a status without a report:\n%s\nWriteJSON:\n%s", got, want)
	}

	for _, path := range paths {
		name := filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc := bytes.TrimSuffix(data, []byte("\n")) // the stored form carries no newline
		st := Status{ID: "j00000001", State: StateDone, Workload: "w", Kernel: "k", Arch: "sm_80", CacheHit: true,
			Degradations: 1, CreatedAt: created, StartedAt: &started, FinishedAt: &finished, Report: doc}
		spliced := encode(func(w http.ResponseWriter) { writeStatus(w, http.StatusOK, st) })
		reencoded := encode(func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, st) })

		got, ref := decode(name, spliced), decode(name, reencoded)
		if !bytes.Equal(got.Report, doc) {
			t.Errorf("%s: the spliced report member is not the stored document", name)
		}
		var a, b bytes.Buffer
		if json.Compact(&a, got.Report) != nil || json.Compact(&b, ref.Report) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: the spliced and re-encoded report members hold different documents", name)
		}
		got.Report, ref.Report = nil, nil
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: envelope decodes to %+v, WriteJSON's to %+v", name, got, ref)
		}

		shifted := bytes.ReplaceAll(spliced, doc, bytes.ReplaceAll(doc, []byte("\n"), []byte("\n  ")))
		if !bytes.Equal(shifted, reencoded) {
			t.Errorf("%s: the bodies differ beyond the report's indentation", name)
		}
	}
}

// TestPeerFillBytesAreChecked: a peer that answers with bytes that are
// not JSON is a peer-fill miss. The worker simulates, answers 200 with
// its own report, and caches that — never the peer's bytes.
func TestPeerFillBytesAreChecked(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4,
		PeerFill: func(context.Context, string, string) ([]byte, bool) {
			return []byte(`{"kernel": "trunc`), true
		}})
	const body = `{"workload":"transpose_naive","scale":32,"dry_run":true}`
	miss := analyzeOK(t, ts, body)
	if miss.CacheHit || !json.Valid(miss.Report) {
		t.Fatalf("first answer: cache_hit=%v, report valid %v; want a simulated report", miss.CacheHit, json.Valid(miss.Report))
	}
	if v := metricValue(t, ts, "gpuscoutd_peer_fill_misses_total"); v != 1 {
		t.Errorf("peer_fill_misses = %g, want 1", v)
	}
	if v := metricValue(t, ts, "gpuscoutd_peer_fill_hits_total"); v != 0 {
		t.Errorf("peer_fill_hits = %g, want 0", v)
	}
	hit := analyzeOK(t, ts, body)
	if !hit.CacheHit || !bytes.Equal(hit.Report, miss.Report) {
		t.Errorf("repeat: cache_hit=%v, same report %v; want a memory hit of the simulated report", hit.CacheHit, bytes.Equal(hit.Report, miss.Report))
	}
}

// discardWriter is a ResponseWriter that keeps only the status code and
// the body's length.
type discardWriter struct {
	header  http.Header
	code, n int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestWarmHitAllocsBounded: a warm hit's heap cost does not grow with its
// report. 300 hits through Handler() — request decode, job, lookup,
// answer — allocate under 8 KiB each for reports of 12 to 49 KB, which a
// per-answer re-encode of the report cannot meet.
func TestWarmHitAllocsBounded(t *testing.T) {
	const hits, bound = 300, 8 << 10
	svc, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for _, w := range []string{"transpose_naive", "sgemm_naive", "jacobi_naive"} {
		body := fmt.Sprintf(`{"workload":%q,"scale":64,"stall_slices":true}`, w)
		serve := func() *discardWriter {
			d := &discardWriter{header: http.Header{}}
			req, _ := http.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
			h.ServeHTTP(d, req)
			return d
		}
		for i := 0; i < 2; i++ { // the miss, then one hit to settle the registry
			if d := serve(); d.code != http.StatusOK {
				t.Fatalf("%s: warm-up answered %d", w, d.code)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		size := 0
		for i := 0; i < hits; i++ {
			d := serve()
			if d.code != http.StatusOK {
				t.Fatalf("%s: hit %d answered %d", w, i, d.code)
			}
			size = d.n
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / hits; per >= bound {
			t.Errorf("%s: a warm hit allocates %d B for a %d-byte answer, bound %d", w, per, size, bound)
		} else {
			t.Logf("%s: a warm hit allocates %d B for a %d-byte answer", w, per, size)
		}
	}
}
