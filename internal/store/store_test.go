package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func req(workload string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"workload":%q}`, workload))
}

func TestJournalAcceptTombstoneRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.AppendAccept("j00000001", "fp-a", req("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAccept("j00000002", "fp-b", req("b")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTombstone("j00000001", "done"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	pending := s2.Pending()
	if len(pending) != 1 || pending[0].ID != "j00000002" || pending[0].Fingerprint != "fp-b" {
		t.Fatalf("pending = %+v, want only j00000002", pending)
	}
	if got := s2.LastJobID(); got != "j00000002" {
		t.Errorf("LastJobID = %q, want j00000002", got)
	}
	if st := s2.Stats(); st.RecoveredTorn {
		t.Error("clean journal reported a torn tail")
	}
	// Tombstoning the survivor empties the journal's live set.
	if err := s2.AppendTombstone("j00000002", "cancelled"); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Pending()); got != 0 {
		t.Errorf("pending after tombstones = %d, want 0", got)
	}
}

// TestJournalRefusesMalformedReq: a req that is not JSON is refused before
// it is framed, so it cannot end a later replay early; the accepts around
// it still replay.
func TestJournalRefusesMalformedReq(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.AppendAccept("j00000001", "fp-a", req("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAccept("j00000002", "fp-bad", json.RawMessage(`{"workload":`)); err == nil {
		t.Fatal("AppendAccept took a req that is not JSON")
	}
	if err := s.AppendAccept("j00000003", "fp-c", req("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range openTest(t, dir, Options{}).Pending() {
		ids = append(ids, p.ID)
	}
	if want := []string{"j00000001", "j00000003"}; !slices.Equal(ids, want) {
		t.Errorf("pending after restart = %v, want %v", ids, want)
	}
}

// TestJournalTornTail truncates the journal at every byte boundary of
// its final record: replay must recover exactly the records before the
// cut, never panic, and the reopened journal must accept appends that
// survive another restart (the truncated tail does not poison the
// file).
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := s.AppendAccept(fmt.Sprintf("j%08d", i), fmt.Sprintf("fp-%d", i), req("w")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, "journal.wal")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, validLen := replayJournal(whole)
	if len(recs) != 3 || validLen != int64(len(whole)) {
		t.Fatalf("baseline replay: %d recs, validLen %d/%d", len(recs), validLen, len(whole))
	}
	// The third record spans [secondEnd, len(whole)).
	_, secondEnd := replayJournal(whole[:len(whole)-1])
	if secondEnd >= int64(len(whole)) {
		t.Fatal("could not locate second record end")
	}

	for cut := int(secondEnd); cut < len(whole); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, "journal.wal"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, dir2, Options{})
		pending := s2.Pending()
		if len(pending) != 2 {
			t.Fatalf("cut at %d: recovered %d jobs, want 2", cut, len(pending))
		}
		if cut > int(secondEnd) {
			if st := s2.Stats(); !st.RecoveredTorn {
				t.Errorf("cut at %d: torn tail not reported", cut)
			}
		}
		// The journal must remain appendable and replayable.
		if err := s2.AppendAccept("j00000009", "fp-9", req("x")); err != nil {
			t.Fatalf("cut at %d: append after truncation: %v", cut, err)
		}
		s2.Close()
		s3 := openTest(t, dir2, Options{})
		if got := len(s3.Pending()); got != 3 {
			t.Fatalf("cut at %d: second restart sees %d pending, want 3", cut, got)
		}
		s3.Close()
	}
}

// TestJournalFlippedByte corrupts one byte inside an interior record:
// replay must stop at the corruption (conservative — everything after
// an unverifiable frame is suspect) and the reopened store must
// truncate it away.
func TestJournalFlippedByte(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		if err := s.AppendAccept(fmt.Sprintf("j%08d", i), "fp", req("w")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, "journal.wal")
	whole, _ := os.ReadFile(path)
	// Locate record boundaries by replaying prefixes.
	var bounds []int
	for cut := 0; cut <= len(whole); cut++ {
		if recs, v := replayJournal(whole[:cut]); int(v) == cut && len(recs) > len(bounds) {
			bounds = append(bounds, cut)
		}
	}
	if len(bounds) != 3 {
		t.Fatalf("found %d record boundaries, want 3", len(bounds))
	}
	// Flip a payload byte of record 2 (between bounds[0] and bounds[1]).
	mut := append([]byte(nil), whole...)
	mut[bounds[0]+10] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{})
	if got := len(s2.Pending()); got != 1 {
		t.Errorf("pending after mid-journal corruption = %d, want 1 (records after the flip discarded)", got)
	}
	if st := s2.Stats(); !st.RecoveredTorn {
		t.Error("corruption not reported as torn")
	}
	if st := s2.Stats(); st.JournalBytes != int64(bounds[0]) {
		t.Errorf("journal truncated to %d bytes, want %d", st.JournalBytes, bounds[0])
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{CompactAfter: 8})
	// Churn enough accept+tombstone pairs to trip compaction, keeping
	// two jobs permanently live.
	if err := s.AppendAccept("j00000001", "fp-live-1", req("keep1")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 30; i++ {
		id := fmt.Sprintf("j%08d", i)
		if err := s.AppendAccept(id, "fp-churn", req("churn")); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendTombstone(id, "done"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendAccept("j00000099", "fp-live-2", req("keep2")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 40+ records with CompactAfter=8: %+v", st)
	}
	if st.JournalLag >= 8+2 {
		t.Errorf("journal lag %d not reclaimed by compaction", st.JournalLag)
	}
	if st.LastCompaction.IsZero() {
		t.Error("LastCompaction not stamped")
	}
	s.Close()

	// The compacted journal must replay to exactly the live set, in
	// acknowledgement order, and still know the highest ID ever issued.
	s2 := openTest(t, dir, Options{})
	pending := s2.Pending()
	if len(pending) != 2 || pending[0].ID != "j00000001" || pending[1].ID != "j00000099" {
		t.Fatalf("pending after compaction+restart = %+v", pending)
	}
	if got := s2.LastJobID(); got != "j00000099" {
		t.Errorf("LastJobID = %q, want j00000099", got)
	}

	// ...also once the record that held it has been compacted away.
	if err := s2.AppendTombstone("j00000099", "done"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got := openTest(t, dir, Options{}).LastJobID(); got != "j00000099" {
		t.Errorf("LastJobID after the highest job was compacted away = %q, want j00000099", got)
	}
}

// TestReserveJobIDs: a reserved block of handles moves LastJobID as an
// accept would, holds no job, and outlives a restart and a compaction; a
// later accept inside the block does not lower it.
func TestReserveJobIDs(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.ReserveJobIDs("j00001024"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAccept("j00000007", "fp", req("sgemm_naive")); err != nil {
		t.Fatal(err)
	}
	if got := s.LastJobID(); got != "j00001024" {
		t.Errorf("LastJobID = %q, want the reserved j00001024", got)
	}
	if p := s.Pending(); len(p) != 1 || p[0].ID != "j00000007" {
		t.Errorf("pending = %+v, want only j00000007", p)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	if got := s2.LastJobID(); got != "j00001024" {
		t.Errorf("LastJobID after a restart = %q, want j00001024", got)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got := openTest(t, dir, Options{}).LastJobID(); got != "j00001024" {
		t.Errorf("LastJobID after a compaction = %q, want j00001024", got)
	}
}

func TestReportStoreRoundTripAndRecency(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	key := strings.Repeat("ab", 32)
	data := []byte(`{"report":"payload"}`)
	if _, ok := s.GetReport(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.PutReport(key, "fp-1", data); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetReport(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("GetReport = %q, %v", got, ok)
	}
	s.Close()

	// Entries survive a restart; the index is rebuilt from headers.
	s2 := openTest(t, dir, Options{})
	got, ok = s2.GetReport(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("after restart: GetReport = %q, %v", got, ok)
	}
	st := s2.Stats()
	if st.ReportEntries != 1 || st.ReportBytes <= int64(len(data)) {
		t.Errorf("stats = %+v", st)
	}
}

// TestReportStoreCorruptEntryQuarantined flips one body byte and one
// header byte: both reads must miss, the files must land in corrupt/,
// and a re-put must self-heal the entry.
func TestReportStoreCorruptEntryQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(raw []byte) []byte
	}{
		{"body bit flip", func(raw []byte) []byte {
			m := append([]byte(nil), raw...)
			m[len(m)-2] ^= 0x01
			return m
		}},
		{"header digest flip", func(raw []byte) []byte {
			m := append([]byte(nil), raw...)
			m[len(reportMagic)+3] ^= 0x01
			return m
		}},
		{"truncated body", func(raw []byte) []byte {
			return raw[:len(raw)-4]
		}},
		{"missing newline", func(raw []byte) []byte {
			return bytes.ReplaceAll(raw, []byte("\n"), []byte(" "))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Options{})
			key := strings.Repeat("cd", 32)
			if err := s.PutReport(key, "fp-x", []byte(`{"ok":true}`)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "reports", key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mut(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if data, ok := s.GetReport(key); ok {
				t.Fatalf("corrupt entry served: %q", data)
			}
			if _, err := os.Stat(filepath.Join(dir, "corrupt", key)); err != nil {
				t.Errorf("corrupt entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry still present in reports/")
			}
			if st := s.Stats(); st.CorruptQuarantined != 1 {
				t.Errorf("CorruptQuarantined = %d, want 1", st.CorruptQuarantined)
			}
			// Self-heal: recompute (simulated by a fresh put) and read back.
			if err := s.PutReport(key, "fp-x", []byte(`{"ok":true}`)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.GetReport(key); !ok {
				t.Error("re-put after quarantine missed")
			}
		})
	}
}

func TestReportStoreByteBoundGC(t *testing.T) {
	dir := t.TempDir()
	// Each entry: ~130-byte header + 100-byte body. Bound to ~3 entries.
	s := openTest(t, dir, Options{MaxBytes: 720})
	body := bytes.Repeat([]byte("x"), 100)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064d", i)
		if err := s.PutReport(keys[i], fmt.Sprintf("fp-%d", i), body); err != nil {
			t.Fatal(err)
		}
		// mtime granularity: make recency strictly ordered.
		mt := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(filepath.Join(dir, "reports", keys[i]), mt, mt)
		e := s.reports[keys[i]]
		e.mtime = mt
		s.reports[keys[i]] = e
	}
	s.mu.Lock()
	s.gcLocked()
	st := Stats{ReportEntries: len(s.reports), ReportBytes: s.reportBytes, Evicted: s.evicted}
	s.mu.Unlock()
	if st.ReportBytes > 720 {
		t.Errorf("GC left %d bytes, bound 720", st.ReportBytes)
	}
	if st.Evicted == 0 {
		t.Error("nothing evicted despite exceeding the bound")
	}
	// The oldest entries must be the evicted ones.
	if _, ok := s.GetReport(keys[0]); ok {
		t.Error("oldest entry survived GC")
	}
	if _, ok := s.GetReport(keys[4]); !ok {
		t.Error("newest entry evicted")
	}
}

func TestReportStoreOrphanTempCleanup(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "reports"), 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		filepath.Join(dir, "reports", ".tmp-crashed123"), // a report write that died before its rename
		filepath.Join(dir, ".tmp-123"),                   // a compaction or breaker save that did
	}
	for _, orphan := range orphans {
		if err := os.WriteFile(orphan, []byte("half a file"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTest(t, dir, Options{})
	for _, orphan := range orphans {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphan temp file %s survived Open", orphan)
		}
	}
	if st := s.Stats(); st.ReportEntries != 0 {
		t.Errorf("orphan counted as an entry: %+v", st)
	}
}

// TestReportStoreUnparseableFileQuarantinedAtOpen: a reports/ file that
// is not an entry at all (no header) must be quarantined during the
// Open scan, not indexed.
func TestReportStoreUnparseableFileQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "reports"), 0o755); err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ef", 32)
	if err := os.WriteFile(filepath.Join(dir, "reports", key), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if _, ok := s.GetReport(key); ok {
		t.Error("headerless file served")
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt", key)); err != nil {
		t.Errorf("headerless file not quarantined: %v", err)
	}
	if st := s.Stats(); st.CorruptQuarantined == 0 {
		t.Error("quarantine not counted")
	}
}

func TestReportKeyValidation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	for _, key := range []string{"", "../escape", "a/b", `a\b`, "dotted.name", strings.Repeat("k", 200)} {
		if err := s.PutReport(key, "fp", []byte("x")); err == nil {
			t.Errorf("PutReport accepted invalid key %q", key)
		}
		if _, ok := s.GetReport(key); ok {
			t.Errorf("GetReport hit invalid key %q", key)
		}
	}
}

func TestBreakerStatePersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if _, ok := s.LoadBreaker(); ok {
		t.Fatal("breaker state on a fresh dir")
	}
	state := []byte(`{"entries":{"fp-poison":{"failures":3}}}`)
	if err := s.SaveBreaker(state); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, Options{})
	got, ok := s2.LoadBreaker()
	if !ok || !bytes.Equal(got, state) {
		t.Fatalf("LoadBreaker = %q, %v", got, ok)
	}
}

// TestFsyncPolicies: every policy round-trips, and under FsyncAlways a
// replaced file's rename is made durable by flushing the directory that
// holds the file — reports/ for an entry, the data dir for the breaker —
// while the other policies flush no directory at all.
func TestFsyncPolicies(t *testing.T) {
	realSyncDir := syncDir
	t.Cleanup(func() { syncDir = realSyncDir })
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			var flushed []string
			syncDir = func(d string) {
				flushed = append(flushed, d)
				realSyncDir(d)
			}
			s := openTest(t, dir, Options{FsyncPolicy: p, FsyncInterval: 5 * time.Millisecond})
			if err := s.AppendAccept("j00000001", "fp", req("w")); err != nil {
				t.Fatal(err)
			}
			if err := s.PutReport(strings.Repeat("77", 32), "fp", []byte("data")); err != nil {
				t.Fatal(err)
			}
			if err := s.SaveBreaker([]byte(`{"entries":{}}`)); err != nil {
				t.Fatal(err)
			}
			want := []string{filepath.Join(dir, "reports"), dir}
			if p != FsyncAlways {
				want = nil
			}
			if !slices.Equal(flushed, want) {
				t.Errorf("directories flushed = %q, want %q", flushed, want)
			}
			if p == FsyncInterval {
				time.Sleep(25 * time.Millisecond) // let the ticker run
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openTest(t, dir, Options{})
			if got := len(s2.Pending()); got != 1 {
				t.Errorf("pending = %d, want 1", got)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "": FsyncAlways,
		"interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestStoreDeadAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	key := strings.Repeat("bb", 32)
	if err := s.PutReport(key, "fp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Torn behind the store's back: a live GetReport would quarantine it.
	entry := filepath.Join(dir, "reports", key)
	if err := os.WriteFile(entry, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, ok := s.GetReport(key); ok {
		t.Error("get on closed store hit")
	}
	if _, err := os.Stat(entry); err != nil {
		t.Errorf("get on closed store moved the entry: %v", err)
	}
	if err := s.AppendAccept("j00000001", "fp", req("w")); err == nil {
		t.Error("append on closed store succeeded")
	}
	if err := s.PutReport(strings.Repeat("aa", 32), "fp", []byte("x")); err == nil {
		t.Error("put on closed store succeeded")
	}
}

// reduce folds a record sequence the way Open does and returns what a
// store opened on it would answer from Pending and LastJobID.
func reduce(recs []rec) (pending []PendingJob, lastID string) {
	var l liveJobs
	for _, r := range recs {
		l.apply(r)
	}
	return l.pending(), l.lastID
}

// TestLiveStateEqualsReplay: whatever a store has appended and compacted,
// its Pending and LastJobID are those of a fresh Open of its directory —
// including after a re-accepted ID, duplicate and orphan tombstones, and
// a compaction that dropped the record holding the highest ID.
func TestLiveStateEqualsReplay(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := openTest(t, dir, Options{FsyncPolicy: FsyncNever, CompactAfter: 6 + rng.Intn(20)})
		for i := 0; i < 120; i++ {
			id := fmt.Sprintf("j%08d", 1+rng.Intn(12)) // few IDs: re-accepts and repeats are common
			var err error
			switch n := rng.Intn(10); {
			case n < 5:
				err = s.AppendAccept(id, fmt.Sprintf("fp-%d", i), req(fmt.Sprint(i)))
			case n < 9:
				err = s.AppendTombstone(id, "done")
			default:
				err = s.Compact()
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if i%10 != 9 {
				continue
			}
			// Nothing is torn, so a second Open of the live directory
			// truncates nothing: a pure replay.
			fresh, err := Open(dir, Options{FsyncPolicy: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := s.Pending(), fresh.Pending(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: live Pending\n  %+v\nreplayed\n  %+v", seed, i, got, want)
			}
			if got, want := s.LastJobID(), fresh.LastJobID(); got != want {
				t.Fatalf("seed %d step %d: live LastJobID %q, replayed %q", seed, i, got, want)
			}
			fresh.Close()
		}
	}
}

// TestReduceDuplicateTombstonesAndReaccept pins the replay semantics
// the fuzz target relies on: duplicate tombstones are no-ops, an
// accept after a tombstone re-opens the ID with the latest request,
// and a snapshot forgets everything before it.
func TestReduceDuplicateTombstonesAndReaccept(t *testing.T) {
	recs := []rec{
		{Op: opAccept, ID: "j1", FP: "a", Req: req("one")},
		{Op: opTomb, ID: "j1", Out: "done"},
		{Op: opTomb, ID: "j1", Out: "done"},                // duplicate tombstone
		{Op: opAccept, ID: "j1", FP: "b", Req: req("two")}, // re-accept
		{Op: opAccept, ID: "j2", FP: "c", Req: req("three")},
		{Op: "future-op", ID: "zz"}, // unknown op skipped
	}
	pending, last := reduce(recs)
	if len(pending) != 2 || pending[0].ID != "j1" || pending[1].ID != "j2" {
		t.Fatalf("pending = %+v", pending)
	}
	if pending[0].Fingerprint != "b" {
		t.Errorf("re-accept did not keep the latest request: %+v", pending[0])
	}
	if last != "j2" {
		t.Errorf("lastID = %q", last)
	}

	recs = append(recs, rec{Op: opSnap}, rec{Op: opAccept, ID: "j9", FP: "z", Req: req("after")})
	pending, _ = reduce(recs)
	if len(pending) != 1 || pending[0].ID != "j9" {
		t.Fatalf("pending after snapshot = %+v", pending)
	}
}
