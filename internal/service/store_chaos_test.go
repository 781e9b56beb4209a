//go:build faultinject

package service

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/store"
)

// These tests drop a running daemon at each persistence kill site and
// restart it against the same data-dir, asserting the durability
// contract end to end: no acknowledged job is lost, no corrupt bytes
// are ever served, and a recovered daemon converges to byte-identical
// reports. The store-level suite (internal/store) covers the same
// sites at the layer below; here the faults travel through Submit,
// the worker pool, and the HTTP surface.

// preserveDataDir copies the data-dir into $CRASH_ARTIFACT_DIR when
// the test fails, so CI can attach the journal and report store for
// post-mortem instead of losing them with the temp dir.
func preserveDataDir(t *testing.T, dir string) {
	t.Helper()
	t.Cleanup(func() {
		dest := os.Getenv("CRASH_ARTIFACT_DIR")
		if !t.Failed() || dest == "" {
			return
		}
		target := filepath.Join(dest, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := copyTree(dir, target); err != nil {
			t.Logf("preserve data dir: %v", err)
			return
		}
		t.Logf("crashed data dir preserved at %s", target)
	})
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
}

// armStoreFault arms a single-shot injected failure at a store kill
// site: the first hit errors, the store goes fail-stop, and the test
// restarts it — the in-process analogue of kill -9 at that instruction.
func armStoreFault(t *testing.T, site string) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if _, err := faultinject.Arm(faultinject.Fault{Site: site, Mode: faultinject.ModeError, Times: 1}); err != nil {
		t.Fatal(err)
	}
}

// endLife hard-stops one daemon life so the next can open the same
// data-dir. Closing a dead store is a no-op beyond releasing handles.
func endLife(svc *Service, ts *httptest.Server) {
	ts.Close()
	svc.Close()
	if svc.cfg.Store != nil {
		svc.cfg.Store.Close()
	}
	faultinject.Reset()
}

// TestChaosDaemonMidJournalAppend kills the daemon inside the
// write-ahead append: the client gets 503 (never an acknowledgement),
// the store goes fail-stop, and the restarted daemon neither
// resurrects the torn job nor loses anything acknowledged before it.
func TestChaosDaemonMidJournalAppend(t *testing.T) {
	dir := t.TempDir()
	preserveDataDir(t, dir)
	baseline := `{"workload":"transpose_naive","scale":32}`

	svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	want := analyzeOK(t, ts, baseline).Report

	armStoreFault(t, "store.journal.append")
	before := retained(svc)
	resp, _ := postAnalyze(t, ts, "", `{"workload":"jacobi_naive","scale":32}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("torn accept: status %d, want 503 (job must not be acknowledged)", resp.StatusCode)
	}
	// A refused job never existed: its handle names nothing and
	// retention holds what it held.
	if _, ok := svc.Job(lastIssuedID(svc)); ok {
		t.Errorf("the refused job is registered as %s", lastIssuedID(svc))
	}
	if got := retained(svc); got != before {
		t.Errorf("a refused accept moved retention (jobs, order) from %v to %v", before, got)
	}
	// Fail-stop: the daemon refuses all further work rather than
	// acknowledging jobs the dead journal cannot record.
	resp, _ = postAnalyze(t, ts, "", baseline)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead store accepted a job: status %d", resp.StatusCode)
	}
	endLife(svc, ts)

	svc2, ts2 := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
	waitRecovered(t, svc2)
	if got := svc2.RecoveredJobs(); got != 0 {
		t.Errorf("recovered %d jobs, want 0 — the torn accept was never acknowledged", got)
	}
	// The acknowledged baseline survives on disk and serves without
	// re-simulating; the shed request now goes through cleanly.
	st := analyzeOK(t, ts2, baseline)
	if !st.CacheHit || !bytes.Equal(want, st.Report) {
		t.Errorf("baseline after restart: cacheHit=%v identical=%v", st.CacheHit, bytes.Equal(want, st.Report))
	}
	if misses := metricValue(t, ts2, "gpuscoutd_cache_misses_total"); misses != 0 {
		t.Errorf("restart re-simulated the baseline: %g pipeline misses", misses)
	}
	analyzeOK(t, ts2, `{"workload":"jacobi_naive","scale":32}`)
}

// TestChaosDaemonMidTombstone kills the daemon after a job finished
// but before its tombstone landed: the restart replays the accept,
// and the recovered job converges through the persistent report store
// — addressable under its original ID, byte-identical, zero pipeline
// runs.
func TestChaosDaemonMidTombstone(t *testing.T) {
	dir := t.TempDir()
	preserveDataDir(t, dir)
	baseline := `{"workload":"transpose_naive","scale":32}`

	svc, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	armStoreFault(t, "store.journal.tombstone")
	// The job completes — report computed, stored, returned — but the
	// injected crash suppresses its tombstone.
	want := analyzeOK(t, ts, baseline).Report
	if faultinject.Fired("store.journal.tombstone") == 0 {
		t.Fatal("tombstone site never fired")
	}
	endLife(svc, ts)

	svc2, ts2 := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	waitRecovered(t, svc2)

	// The journal listed the job as live, so recovery re-enqueued it
	// under its original ID; it must converge via the disk store.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st Status
		resp := getJSON(t, ts2.URL+"/v1/jobs/j00000001", &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET recovered job: status %d", resp.StatusCode)
		}
		if st.State == StateDone {
			if !st.CacheHit || !bytes.Equal(want, st.Report) {
				t.Fatalf("recovered job: cacheHit=%v identical=%v, want store-served identical bytes",
					st.CacheHit, bytes.Equal(want, st.Report))
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
	if got := svc2.RecoveredJobs(); got != 1 {
		t.Errorf("recovered_jobs = %d, want 1", got)
	}
	if hits := metricValue(t, ts2, "gpuscoutd_store_hits_total"); hits < 1 {
		t.Errorf("store_hits_total = %g, want >= 1 (convergence must come from disk)", hits)
	}
	if misses := metricValue(t, ts2, "gpuscoutd_cache_misses_total"); misses != 0 {
		t.Errorf("recovered job re-simulated: %g pipeline misses", misses)
	}
	// This life's tombstone landed, so the journal is quiescent.
	var hz map[string]any
	getJSON(t, ts2.URL+"/healthz", &hz)
	dd, _ := hz["data_dir"].(map[string]any)
	if dd == nil {
		t.Fatal("healthz data_dir block missing")
	}
	if live, _ := dd["journal_live_jobs"].(float64); live != 0 {
		t.Errorf("journal_live_jobs = %v after convergence, want 0", dd["journal_live_jobs"])
	}
}

// TestChaosDaemonMidReportRename kills the daemon between a report's
// temp write and its rename: the client already has the report, the
// disk copy is lost, and the restarted daemon self-heals by
// recomputing — byte-identical to both the first life and a
// never-crashed control daemon, with zero corrupt entries.
func TestChaosDaemonMidReportRename(t *testing.T) {
	dir := t.TempDir()
	preserveDataDir(t, dir)
	baseline := `{"workload":"transpose_naive","scale":32}`

	// Control: a daemon that never crashes, for report identity.
	_, ctrl := newStoreServer(t, t.TempDir(), Config{Workers: 1, QueueDepth: 8})
	control := analyzeOK(t, ctrl, baseline).Report

	svc, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	armStoreFault(t, "store.report.rename")
	// The pipeline runs and the client is answered; only the disk
	// write-through dies (swallowed — the report exists in memory).
	first := analyzeOK(t, ts, baseline).Report
	if !bytes.Equal(control, first) {
		t.Fatal("first life diverged from the control daemon")
	}
	if faultinject.Fired("store.report.rename") == 0 {
		t.Fatal("report rename site never fired")
	}
	endLife(svc, ts)

	svc2, ts2 := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	waitRecovered(t, svc2)
	// The report never reached the store and the tombstone died with
	// it, so recovery re-runs the job: exactly one pipeline pass.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st Status
		resp := getJSON(t, ts2.URL+"/v1/jobs/j00000001", &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET recovered job: status %d", resp.StatusCode)
		}
		if st.State == StateDone {
			if !bytes.Equal(control, st.Report) {
				t.Fatal("recomputed report diverged from the control daemon")
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
	if got := svc2.RecoveredJobs(); got != 1 {
		t.Errorf("recovered_jobs = %d, want 1", got)
	}
	// No half-written debris: the orphan temp file is swept at Open and
	// nothing was ever quarantined (a torn rename leaves no entry at all).
	des, err := os.ReadDir(filepath.Join(dir, "reports"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Errorf("orphan temp file %s survived restart", de.Name())
		}
	}
	if q := metricValue(t, ts2, "gpuscoutd_store_corrupt_quarantined"); q != 0 {
		t.Errorf("corrupt_quarantined = %g, want 0", q)
	}
	// Self-heal is durable: a third life serves the recomputed report
	// from disk.
	endLife(svc2, ts2)
	svc3, ts3 := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 8})
	waitRecovered(t, svc3)
	st3 := analyzeOK(t, ts3, baseline)
	if !st3.CacheHit || !bytes.Equal(control, st3.Report) {
		t.Errorf("third life: cacheHit=%v identical=%v, want disk-served identical report",
			st3.CacheHit, bytes.Equal(control, st3.Report))
	}
}

// TestChaosDaemonMidCompactRename kills the daemon between the
// compacted journal's temp write and its rename: the uncompacted
// journal stays authoritative, the restart sweeps journal.tmp, and
// the daemon keeps working.
func TestChaosDaemonMidCompactRename(t *testing.T) {
	dir := t.TempDir()
	preserveDataDir(t, dir)
	opts := store.Options{FsyncPolicy: store.FsyncNever, CompactAfter: 4}
	baseline := `{"workload":"transpose_naive","dry_run":true}`

	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Workers: 1, QueueDepth: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	analyzeOK(t, ts, baseline)

	// Distinct dry runs: each is a miss, journaled as an accept and a
	// tombstone (a local hit is answered at Submit and journals nothing).
	churn := func(i int) string {
		return fmt.Sprintf(`{"workload":"transpose_naive","dry_run":true,"scale":%d}`, 32*(i+1))
	}

	armStoreFault(t, "store.compact.rename")
	// Churn finished jobs until the journal lag trips a compaction into
	// the armed rename. Submissions may start failing 503 once the
	// store is dead; the loop only cares that the site fired.
	for i := 0; i < 30 && faultinject.Fired("store.compact.rename") == 0; i++ {
		resp, _ := postAnalyze(t, ts, "", churn(i))
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("churn %d: status %d", i, resp.StatusCode)
		}
	}
	if faultinject.Fired("store.compact.rename") == 0 {
		t.Fatal("compaction never tripped the armed rename site")
	}
	endLife(svc, ts)

	st2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := New(Config{Workers: 1, QueueDepth: 8, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(func() { endLife(svc2, ts2) })
	waitRecovered(t, svc2)

	if _, err := os.Stat(filepath.Join(dir, "journal.tmp")); !os.IsNotExist(err) {
		t.Error("journal.tmp survived restart")
	}
	// At most the one in-flight churn job comes back; everything
	// tombstoned before the crash stays tombstoned.
	if got := svc2.RecoveredJobs(); got > 1 {
		t.Errorf("recovered %d jobs, want <= 1", got)
	}
	// The daemon is fully live: the baseline serves from disk and new
	// compactions succeed (exercised by more churn).
	if got := analyzeOK(t, ts2, baseline); !got.CacheHit {
		t.Error("baseline not served from the persistent store after a crashed compaction")
	}
	for i := 0; i < 8; i++ {
		analyzeOK(t, ts2, churn(100+i))
	}
	var hz map[string]any
	getJSON(t, ts2.URL+"/healthz", &hz)
	if hz["status"] != "ok" {
		t.Errorf("healthz after crashed compaction: %v", hz["status"])
	}
}

// TestSoakCrashRestartCycles loops crash/restart cycles over the same
// data-dir, rotating through every kill site. Each life must serve the
// baseline workload byte-identically; the final clean life must serve
// it from disk. SOAK_CYCLES overrides the cycle count (make soak).
func TestSoakCrashRestartCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("soak suite skipped in -short")
	}
	cycles := 4
	if v := os.Getenv("SOAK_CYCLES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cycles = n
		}
	}
	dir := t.TempDir()
	preserveDataDir(t, dir)
	sites := []string{
		"store.journal.append",
		"store.journal.tombstone",
		"store.report.rename",
		"store.compact.rename",
	}
	baseline := `{"workload":"transpose_naive","scale":32}`
	opts := store.Options{FsyncPolicy: store.FsyncNever, CompactAfter: 4}
	var want []byte

	openLife := func() (*Service, *httptest.Server) {
		st, err := store.Open(dir, opts)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		svc, err := New(Config{Workers: 2, QueueDepth: 16, Store: st})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return svc, httptest.NewServer(svc.Handler())
	}

	for cycle := 0; cycle < cycles; cycle++ {
		faultinject.Reset()
		svc, ts := openLife()
		waitRecovered(t, svc)

		st := analyzeOK(t, ts, baseline)
		if want == nil {
			want = st.Report
		} else if !bytes.Equal(want, st.Report) {
			endLife(svc, ts)
			t.Fatalf("cycle %d: baseline report diverged after %d crashes", cycle, cycle)
		}

		site := sites[cycle%len(sites)]
		if _, err := faultinject.Arm(faultinject.Fault{Site: site, Mode: faultinject.ModeError, Times: 1}); err != nil {
			t.Fatal(err)
		}
		// Drive distinct-key traffic until the armed site fires. Unique
		// sample_sms values force fresh cache keys, so every request
		// journals, computes, stores, and tombstones.
		for i := 0; i < 50 && faultinject.Fired(site) == 0; i++ {
			body := fmt.Sprintf(`{"workload":"transpose_naive","dry_run":true,"sample_sms":%d}`, cycle*64+i+1)
			resp, _ := postAnalyze(t, ts, "", body)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				endLife(svc, ts)
				t.Fatalf("cycle %d churn %d: status %d", cycle, i, resp.StatusCode)
			}
		}
		fired := faultinject.Fired(site)
		endLife(svc, ts)
		if fired == 0 {
			t.Fatalf("cycle %d: site %s never fired", cycle, site)
		}
	}

	// Final clean life: everything converges and the baseline comes
	// straight off disk.
	faultinject.Reset()
	svc, ts := openLife()
	t.Cleanup(func() { endLife(svc, ts) })
	waitRecovered(t, svc)
	st := analyzeOK(t, ts, baseline)
	if !st.CacheHit || !bytes.Equal(want, st.Report) {
		t.Fatalf("final life: cacheHit=%v identical=%v, want disk-served identical bytes",
			st.CacheHit, bytes.Equal(want, st.Report))
	}
	if hits := metricValue(t, ts, "gpuscoutd_store_hits_total"); hits < 1 {
		t.Errorf("final life store_hits_total = %g, want >= 1", hits)
	}
	if q := metricValue(t, ts, "gpuscoutd_store_corrupt_quarantined"); q != 0 {
		t.Errorf("corrupt_quarantined = %g after %d crashes, want 0", q, cycles)
	}
}
