//go:build faultinject

package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscout/internal/faultinject"
)

// These tests kill the store at each registered crash point and assert
// the recovery invariants directly at the store layer: a crash
// mid-mutation never corrupts the directory, never loses an
// acknowledged job, and never resurrects an unacknowledged one. The
// service-level suite (internal/service) layers the same kill sites
// under a running daemon.

func armError(t *testing.T, site string) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if _, err := faultinject.Arm(faultinject.Fault{Site: site, Mode: faultinject.ModeError, Times: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosMidAppend kills the store between the two halves of a frame
// write: the journal holds genuinely torn bytes. The job was never
// acknowledged (AppendAccept errored), so recovery must not resurrect
// it — and must truncate the torn tail so the journal stays usable.
func TestChaosMidAppend(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.AppendAccept("j00000001", "fp-acked", req("acked")); err != nil {
		t.Fatal(err)
	}

	armError(t, "store.journal.append")
	err := s.AppendAccept("j00000002", "fp-torn", req("torn"))
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append survived the injected crash: %v", err)
	}
	// Fail-stop: every later operation refuses.
	if err := s.AppendAccept("j00000003", "fp-x", req("x")); !errors.Is(err, ErrDead) {
		t.Fatalf("dead store accepted an append: %v", err)
	}
	s.Close()

	// The torn frame is really on disk — half a frame past the valid end.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	_, validLen := replayJournal(raw)
	if validLen >= int64(len(raw)) {
		t.Fatalf("no torn bytes on disk: validLen %d, file %d", validLen, len(raw))
	}

	// Restart: the acknowledged job survives, the torn one does not.
	s2 := openTest(t, dir, Options{})
	if st := s2.Stats(); !st.RecoveredTorn {
		t.Error("torn tail not reported after restart")
	}
	pending := s2.Pending()
	if len(pending) != 1 || pending[0].ID != "j00000001" {
		t.Fatalf("pending after crash = %+v, want only the acknowledged job", pending)
	}
	// The journal accepts appends again and they survive another restart.
	if err := s2.AppendAccept("j00000004", "fp-after", req("after")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTest(t, dir, Options{})
	if got := len(s3.Pending()); got != 2 {
		t.Fatalf("second restart sees %d pending, want 2", got)
	}
}

// TestChaosMidTombstone kills the store before a finished job's
// tombstone lands: restart must re-list the job as pending (it re-runs
// and converges through the report store — never silently dropped).
func TestChaosMidTombstone(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.AppendAccept("j00000001", "fp-a", req("a")); err != nil {
		t.Fatal(err)
	}
	armError(t, "store.journal.tombstone")
	if err := s.AppendTombstone("j00000001", "done"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("tombstone survived the injected crash: %v", err)
	}
	s.Close()

	s2 := openTest(t, dir, Options{})
	pending := s2.Pending()
	if len(pending) != 1 || pending[0].ID != "j00000001" {
		t.Fatalf("pending = %+v, want the un-tombstoned job back", pending)
	}
	// This time the tombstone lands; the journal converges.
	if err := s2.AppendTombstone("j00000001", "done"); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Pending()); got != 0 {
		t.Fatalf("pending after successful tombstone = %d, want 0", got)
	}
}

// TestChaosMidReportRename kills the store between a report entry's
// temp-file write and its rename: the entry must read as a clean miss
// after restart (self-heal by recompute), with no temp-file debris and
// no partial bytes ever served.
func TestChaosMidReportRename(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	key := strings.Repeat("ab", 32)
	armError(t, "store.report.rename")
	if err := s.PutReport(key, "fp-1", []byte("report body")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("put survived the injected crash: %v", err)
	}
	s.Close()

	s2 := openTest(t, dir, Options{})
	if _, ok := s2.GetReport(key); ok {
		t.Fatal("half-written report served after restart")
	}
	// Open removed the orphaned temp file.
	des, err := os.ReadDir(filepath.Join(dir, "reports"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Fatalf("orphan temp file %s survived restart", de.Name())
		}
	}
	// Recompute path: the next put lands and round-trips.
	want := []byte("recomputed body")
	if err := s2.PutReport(key, "fp-1", want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetReport(key); !ok || !bytes.Equal(got, want) {
		t.Fatalf("self-heal put: got %q, %v", got, ok)
	}
}

// TestChaosMidCompactRename kills the store between the compacted
// journal's temp write and its rename: the old journal must stay
// authoritative and the next Open must discard the rewrite's temp file.
func TestChaosMidCompactRename(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{CompactAfter: 4})
	if err := s.AppendAccept("j00000001", "fp-live", req("live")); err != nil {
		t.Fatal(err)
	}
	armError(t, "store.compact.rename")
	// Churn until the compaction trips and hits the armed site.
	var crashed bool
	for i := 10; i < 30 && !crashed; i++ {
		id := fmt.Sprintf("j%08d", i)
		if err := s.AppendAccept(id, "fp-churn", req("churn")); err != nil {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("append %s: %v", id, err)
			}
			crashed = true
			break
		}
		if err := s.AppendTombstone(id, "done"); err != nil {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("tombstone %s: %v", id, err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("compaction never tripped the armed rename site")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmps) != 1 {
		t.Fatalf("crashed compaction left temp files %v, want one", tmps)
	}
	s.Close()

	// Restart: the uncompacted journal is authoritative, the temp file
	// is swept, and the live set is exactly what was acknowledged.
	s2 := openTest(t, dir, Options{CompactAfter: 4})
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(tmps) != 0 {
		t.Fatalf("temp files %v survived restart", tmps)
	}
	pending := s2.Pending()
	ids := map[string]bool{}
	for _, p := range pending {
		ids[p.ID] = true
	}
	if !ids["j00000001"] {
		t.Fatalf("long-lived job lost across crashed compaction: %+v", pending)
	}
	// A clean compaction now succeeds and preserves the same live set.
	faultinject.Reset()
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s2.Pending()
	if len(after) != len(pending) {
		t.Fatalf("compaction changed the live set: %d -> %d", len(pending), len(after))
	}
	s2.Close()
	s3 := openTest(t, dir, Options{})
	if got := len(s3.Pending()); got != len(pending) {
		t.Fatalf("post-compaction restart sees %d pending, want %d", got, len(pending))
	}
}
