package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/store"
)

// journalOps reads a store directory's journal frames and returns, per
// job ID, the ops recorded for it in order ("accept", "tomb:<state>").
func journalOps(t *testing.T, dir string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string][]string{}
	for len(data) >= 8 {
		n := int(binary.LittleEndian.Uint32(data))
		if len(data) < 8+n {
			t.Fatalf("torn journal frame: %d bytes left, frame of %d", len(data)-8, n)
		}
		var r struct{ Op, ID, Out string }
		if err := json.Unmarshal(data[8:8+n], &r); err != nil {
			t.Fatal(err)
		}
		switch r.Op {
		case "accept":
			ops[r.ID] = append(ops[r.ID], "accept")
		case "tomb":
			ops[r.ID] = append(ops[r.ID], "tomb:"+r.Out)
		}
		data = data[8+n:]
	}
	return ops
}

// spinDone returns the moment j's Done closes, polling rather than
// parking, so what the caller checks next is observed as early as any
// waiter could observe it.
func spinDone(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-j.Done():
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", j.ID, j.StateNow())
		}
	}
}

// waitJob waits for a job startup recovery registers under id.
func waitJob(t *testing.T, svc *Service, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if j, ok := svc.Job(id); ok {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job %s never registered", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func finishedTotal(svc *Service) (n uint64) {
	for _, c := range svc.jobsFinished {
		n += c.Value()
	}
	return n
}

func breakerEntryOf(svc *Service, fp string) (breakerEntry, bool) {
	svc.breaker.mu.Lock()
	defer svc.breaker.mu.Unlock()
	if e, ok := svc.breaker.entries[fp]; ok {
		return *e, true
	}
	return breakerEntry{}, false
}

// TestEveryPathSettlesOnce drives a job down every way into the service
// — a fresh miss, a hit answered at Submit, a batch item, a poison input,
// a cancelled job, and after a restart a recovered miss and a recovered
// hit — and checks the one settle step on each: jobs_finished_total
// moves by exactly one, the breaker's verdict is in place the moment
// Done closes, and the journal ends with one tombstone per accept and no
// record at all for the hit answered at Submit.
func TestEveryPathSettlesOnce(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	const rounds = 30 // seven verdicts a round: 210 checked right after Done
	cfg := Config{Workers: 2, QueueDepth: 8, RetryAttempts: 1, QuarantineAfter: 2, QuarantineCooldown: time.Hour}
	miss := AnalyzeRequest{Workload: "transpose_naive", Scale: 32, DryRun: true}
	item := AnalyzeRequest{Workload: "jacobi_naive", Scale: 32, DryRun: true}
	poison := AnalyzeRequest{Cubin: []byte("not a cubin at all")}
	cancelled := AnalyzeRequest{Workload: "histogram_global", Scale: 4}
	// Journaled by a crashed daemon: a miss, and a hit on miss's stored report.
	const recHitID = "j09000002"
	recovered := []struct {
		id  string
		req AnalyzeRequest
	}{{"j09000001", AnalyzeRequest{Workload: "mixbench_sp_naive", Scale: 8, DryRun: true}}, {recHitID, miss}}

	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		svc, ts := newStoreServer(t, dir, cfg)
		// settled checks one path: the verdict holds right after Done, and
		// the job ended in want.
		settled := func(path string, j *Job, want State, verdict func() string) {
			t.Helper()
			spinDone(t, j)
			if msg := verdict(); msg != "" {
				t.Fatalf("round %d, %s: right after Done, %s (state %s: %s)", round, path, msg, j.StateNow(), j.Snapshot().Error)
			}
			if got := j.StateNow(); got != want {
				t.Fatalf("round %d, %s: state %s, want %s (%s)", round, path, got, want, j.Snapshot().Error)
			}
		}
		// cleared is the verdict of a done job on an input with one prior
		// failure: the entry is gone.
		cleared := func(svc *Service, fp string) func() string {
			return func() string {
				if _, ok := breakerEntryOf(svc, fp); ok {
					return "the breaker still holds the input's failure"
				}
				return ""
			}
		}
		seed := func(svc *Service, req AnalyzeRequest, failures int) string {
			fp := req.Fingerprint()
			for range failures {
				svc.breaker.recordFailure(fp, "seeded")
			}
			return fp
		}
		// counted checks the paths so far moved jobs_finished_total by one each.
		counted := func(path string, want uint64) {
			t.Helper()
			if got := finishedTotal(svc); got != want {
				t.Fatalf("round %d, after %s: jobs_finished_total = %d, want %d", round, path, got, want)
			}
		}

		// A fresh miss, then the same request answered at Submit.
		fp := seed(svc, miss, 1)
		j, err := svc.Submit(miss)
		if err != nil {
			t.Fatal(err)
		}
		settled("fresh miss", j, StateDone, cleared(svc, fp))
		counted("fresh miss", 1)
		seed(svc, miss, 1)
		hit, err := svc.Submit(miss)
		if err != nil {
			t.Fatal(err)
		}
		settled("Submit hit", hit, StateDone, cleared(svc, fp))
		if tier := hit.Snapshot().Tier; tier != tierMemory {
			t.Fatalf("round %d: Submit hit answered from %q, want memory", round, tier)
		}
		counted("Submit hit", 2)

		// A batch of two identical items: one job, settled once.
		fp = seed(svc, item, 1)
		resp, out := postBatch(t, ts, BatchRequest{Requests: []AnalyzeRequest{item, item}})
		if resp.StatusCode != 200 || len(out.Results) != 2 || out.Results[0].ID != out.Results[1].ID {
			t.Fatalf("round %d: batch answered %d with %+v", round, resp.StatusCode, out.Results)
		}
		batchJob, _ := svc.Job(out.Results[0].ID)
		settled("batch item", batchJob, StateDone, cleared(svc, fp))
		counted("batch item", 3)

		// A poison input: one failure counted, no probe left held.
		fp = poison.Fingerprint()
		j, err = svc.Submit(poison)
		if err != nil {
			t.Fatal(err)
		}
		settled("poison", j, StateFailed, func() string {
			if e, ok := breakerEntryOf(svc, fp); !ok || e.failures != 1 || e.probing {
				return fmt.Sprintf("the breaker holds %+v (present %v) for the poison input, want one failure", e, ok)
			}
			return ""
		})
		counted("poison", 4)

		// A cancelled half-open probe: its slot is freed, no verdict. The
		// attempt's delay holds it until the cancel has landed.
		fp = seed(svc, cancelled, cfg.QuarantineAfter)
		svc.breaker.mu.Lock()
		svc.breaker.entries[fp].failedAt = time.Now().Add(-2 * cfg.QuarantineCooldown) // cooled down
		svc.breaker.mu.Unlock()
		if _, err := faultinject.Arm(faultinject.Fault{
			Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: 20 * time.Millisecond, Times: 1,
		}); err != nil {
			t.Fatal(err)
		}
		j, err = svc.Submit(cancelled)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := breakerEntryOf(svc, fp); !e.probing {
			t.Fatalf("round %d: the cancelled job was not admitted as the half-open probe", round)
		}
		j.Cancel()
		settled("cancel", j, StateCancelled, func() string {
			if e, ok := breakerEntryOf(svc, fp); !ok || e.probing || e.failures != cfg.QuarantineAfter {
				return "the probe slot is still held, or the breaker took a verdict"
			}
			return ""
		})
		counted("cancel", 5)

		// Crash with two accepts pending — one whose report is stored, one
		// not — and their inputs each with one failure on the breaker.
		st := svc.cfg.Store
		for _, rec := range recovered {
			body, _ := json.Marshal(rec.req)
			if err := st.AppendAccept(rec.id, rec.req.Fingerprint(), body); err != nil {
				t.Fatal(err)
			}
			seed(svc, rec.req, 1)
		}
		if err := st.SaveBreaker(svc.breaker.exportJSON()); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		svc.Close()
		st.Close()

		svc, _ = newStoreServer(t, dir, cfg)
		for _, rec := range recovered {
			j := waitJob(t, svc, rec.id)
			settled("recovered "+rec.id, j, StateDone, cleared(svc, rec.req.Fingerprint()))
		}
		waitRecovered(t, svc)
		counted("recovery", 2)
		if tier := waitJob(t, svc, recHitID).Snapshot().Tier; tier != tierDisk {
			t.Fatalf("round %d: recovered hit answered from %q, want disk", round, tier)
		}
		svc.Close()
		svc.cfg.Store.Close()

		ops := journalOps(t, dir)
		if got := ops[hit.ID]; len(got) != 0 {
			t.Fatalf("round %d: the hit answered at Submit has journal records %v", round, got)
		}
		accepts := 0
		for id, got := range ops {
			if len(got) == 0 || got[0] != "accept" {
				continue
			}
			accepts++
			if len(got) != 2 || got[1][:5] != "tomb:" {
				t.Fatalf("round %d: job %s journaled %v, want one accept and one tombstone", round, id, got)
			}
		}
		if accepts != 6 {
			t.Fatalf("round %d: %d accepts journaled, want 6 (miss, batch, poison, cancel, two recovered)", round, accepts)
		}
	}
}

// TestRecoveredStoredReportsNeedNoWorker: journaled jobs whose reports
// are already stored are answered by startup recovery at admission —
// done, from disk — while the only worker is still held by the one
// recovered job that has to run, and the one queue place stays free.
func TestRecoveredStoredReportsNeedNoWorker(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	var stored []AnalyzeRequest
	for _, scale := range []int{32, 64, 96, 128} {
		stored = append(stored, AnalyzeRequest{Workload: "transpose_naive", Scale: scale, DryRun: true})
	}
	{
		svc, ts := newStoreServer(t, dir, Config{Workers: 2, QueueDepth: 8})
		for _, req := range stored {
			body, _ := json.Marshal(req)
			analyzeOK(t, ts, string(body))
		}
		ts.Close()
		svc.Close()
		svc.cfg.Store.Close()
	}
	// The crashed daemon's journal: a miss first, then the stored ones.
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := AnalyzeRequest{Workload: "jacobi_naive", Scale: 32, DryRun: true}
	var ids []string
	for i, req := range append([]AnalyzeRequest{runner}, stored...) {
		body, _ := json.Marshal(req)
		id := fmt.Sprintf("j%08d", 9000001+i)
		if err := st.AppendAccept(id, req.Fingerprint(), body); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	st.Close()

	const hold = 2 * time.Second
	if _, err := faultinject.Arm(faultinject.Fault{
		Site: "service.attempt", Mode: faultinject.ModeDelay, Delay: hold, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	svc, ts := newStoreServer(t, dir, Config{Workers: 1, QueueDepth: 1})
	for _, id := range ids[1:] {
		j := waitJob(t, svc, id)
		select {
		case <-j.Done():
		case <-time.After(hold - time.Since(start)):
			t.Fatalf("recovered job %s with a stored report still %s when the worker's hold ends", id, j.StateNow())
		}
		if s := j.Snapshot(); s.State != StateDone || s.Tier != tierDisk || s.Attempts != 1 {
			t.Errorf("recovered job %s: state %s tier %q attempts %d, want done from disk in one attempt", id, s.State, s.Tier, s.Attempts)
		}
	}
	if state := waitJob(t, svc, ids[0]).StateNow(); state.Terminal() {
		t.Fatalf("the held job is already %s: the worker was not held while the others were answered", state)
	}
	if s := waitForTerminal(t, ts, ids[0]); s.State != StateDone || s.Tier != tierSimulated {
		t.Errorf("recovered miss %s: state %s tier %q, want done by simulation", ids[0], s.State, s.Tier)
	}
	waitRecovered(t, svc)
	if got := metricValue(t, ts, "gpuscoutd_recovered_jobs_total"); got != float64(len(ids)) {
		t.Errorf("recovered_jobs_total = %g, want %d", got, len(ids))
	}
}
