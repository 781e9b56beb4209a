package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"time"

	"gpuscout/internal/faultinject"
)

// The write-ahead job journal is a single append-only file of framed
// records. Every job a worker will run, sync, async or batch alike
// (they all enter through Submit), is appended *before* it is enqueued
// — the acknowledgement the client receives is backed by bytes on disk
// — and every terminal transition (done, failed, cancelled, timeout) is
// appended as a tombstone. A job answered at Submit has no record; an
// "ids" record reserves a block of handles for such jobs ahead of use.
// On startup a recovery pass replays the journal: accepts without a
// tombstone are the jobs a crash interrupted, and the service
// re-enqueues them.
//
// Frame layout (little-endian):
//
//	[4 bytes payload length][4 bytes IEEE CRC32 of payload][payload]
//
// The payload is one JSON record (see rec). A torn tail — a partial
// frame left by a crash mid-append — is detected by a short header, an
// implausible length, a short payload, or a CRC mismatch; replay stops
// at the last valid frame and the file is truncated there, so the next
// append continues from a clean prefix. Everything after the first bad
// frame is discarded deliberately: a record written after a torn one
// cannot have been acknowledged in order, and resynchronizing inside
// corrupt bytes risks resurrecting garbage as a job.
//
// Compaction: once the log carries compactAfter more records than live
// jobs, it is rewritten as one snapshot marker followed by an accept
// per still-pending job (temp file + fsync + rename, the same
// atomicity discipline as report entries). A "snap" record therefore
// means "forget every job replayed so far" (the highest job ID it
// carries outlives the records that held it) — replay handles snapshots
// at any position, not only record zero, so a journal produced by a
// crashed compaction glued to an older log still replays sanely.

// journal kill sites for the restart chaos suite. Each one models the
// process dying at a specific point of the write path: mid-append
// (torn frame on disk), before a tombstone lands (job re-runs on
// restart), and between a compacted journal's temp write and its
// rename (old journal must stay authoritative).
var (
	siteJournalAppend    = faultinject.Register("store.journal.append")
	siteJournalTombstone = faultinject.Register("store.journal.tombstone")
	siteCompactRename    = faultinject.Register("store.compact.rename")
)

// recMaxBytes bounds one frame's payload: the largest legitimate record
// is an accept carrying a full AnalyzeRequest (upload bodies are capped
// at 8 MiB by the service, base64-inflated in JSON). Anything larger in
// the length field is torn or hostile bytes, not a record.
const recMaxBytes = 64 << 20

// Journal record operations.
const (
	opAccept = "accept" // job acknowledged: id, fp, req
	opTomb   = "tomb"   // job reached a terminal state: id, out
	opSnap   = "snap"   // compaction marker: forget all prior records; id = highest ever
	opIDs    = "ids"    // job handles up to id may be issued without a record of their own
)

// rec is the JSON payload of one journal frame.
type rec struct {
	Op string `json:"op"`
	// ID is the job handle ("j00000007") of an accept or tomb record; on
	// a snap record, the highest handle the compacted-away log had seen;
	// on an ids record, the highest handle the service may issue.
	ID string `json:"id,omitempty"`
	// FP is the input fingerprint (accept records) — the identity the
	// report store and cluster routing key on.
	FP string `json:"fp,omitempty"`
	// Out is the terminal state a tombstone records ("done", "failed",
	// "cancelled", "timeout").
	Out string `json:"out,omitempty"`
	// Req is the marshaled AnalyzeRequest (accept records), replayed
	// verbatim into a re-enqueued job.
	Req json.RawMessage `json:"req,omitempty"`
	// T is the record's wall-clock time (unix nanoseconds), for
	// operators reading journals; replay ignores it.
	T int64 `json:"t,omitempty"`
}

// PendingJob is one journal accept without a matching tombstone: a job
// the daemon acknowledged but never finished. Recovery re-enqueues it.
type PendingJob struct {
	ID          string
	Fingerprint string
	Req         json.RawMessage
}

// encodeRecord frames one record, its payload json.Marshal(r) byte for
// byte: the short fields go through the encoder, and Req (megabytes, see
// AppendAccept) and T, rec's last fields, are appended after them.
func encodeRecord(r rec) []byte {
	req, t := r.Req, r.T
	r.Req, r.T = nil, 0
	head, _ := json.Marshal(r) // strings only: cannot fail
	frame := append(make([]byte, 8, 8+len(head)+len(req)+32), head[:len(head)-1]...)
	if len(req) > 0 {
		frame = append(append(frame, `,"req":`...), req...)
	}
	if t != 0 {
		frame = strconv.AppendInt(append(frame, `,"t":`...), t, 10)
	}
	frame = append(frame, '}')
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

// replayJournal decodes frames from data until the first torn or
// corrupt one. It returns the decoded records and the byte length of
// the valid prefix (the offset appends must resume from).
func replayJournal(data []byte) (recs []rec, validLen int64) {
	off := 0
	for {
		if len(data)-off < 8 {
			return recs, int64(off) // short header: torn tail
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > recMaxBytes || int(n) > len(data)-off-8 {
			return recs, int64(off) // implausible length or short payload
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, int64(off) // flipped bytes: stop, do not resync
		}
		var r rec
		if err := json.Unmarshal(payload, &r); err != nil {
			// A frame that passes its CRC but is not a record means a
			// writer bug or deliberate corruption with a fixed-up CRC;
			// treat like a torn tail — conservative, never guess.
			return recs, int64(off)
		}
		recs = append(recs, r)
		off += 8 + int(n)
	}
}

// liveJobs is the journal's live-job state, and apply the one fold that
// produces it: Open applies every replayed record, the append path each
// record it has just written, compaction the records of the snapshot it
// renames into place — so the live store and a replay of its journal
// cannot disagree. The zero value is an empty journal.
type liveJobs struct {
	jobs map[string]PendingJob
	// order holds job IDs as first acknowledged; it keeps tombstoned IDs
	// and repeats a re-accepted one until the next snapshot (pending
	// skips both), so it grows only between compactions.
	order []string
	// lastID is the highest job ID ever recorded (see LastJobID).
	lastID string
}

// apply folds one record in. Duplicate accepts keep the latest request
// bytes; duplicate tombstones are harmless; an accept after a tombstone
// re-opens the job at its first position (the only way that sequence is
// written is an ID reused after the journal recorded its predecessor's
// end). A snapshot forgets every job before it but not the highest ID,
// which it carries.
func (l *liveJobs) apply(r rec) {
	switch r.Op {
	case opAccept:
		if r.ID == "" {
			return
		}
		if l.jobs == nil {
			l.jobs = map[string]PendingJob{}
		}
		if _, ok := l.jobs[r.ID]; !ok {
			l.order = append(l.order, r.ID)
		}
		l.jobs[r.ID] = PendingJob{ID: r.ID, Fingerprint: r.FP, Req: r.Req}
	case opTomb:
		delete(l.jobs, r.ID)
	case opSnap:
		// Compaction marker: everything before it is superseded.
		l.jobs, l.order = nil, nil
	case opIDs:
		// A block of handles reserved: only the highest ID moves.
	default:
		// Unknown op from a newer version: skip the record, keep the
		// rest of the journal.
		return
	}
	if r.ID > l.lastID {
		l.lastID = r.ID
	}
}

// pending lists the live jobs in acknowledgement order.
func (l *liveJobs) pending() []PendingJob {
	out := make([]PendingJob, 0, len(l.jobs))
	seen := make(map[string]bool, len(l.jobs))
	for _, id := range l.order {
		if p, ok := l.jobs[id]; ok && !seen[id] {
			seen[id] = true
			out = append(out, p)
		}
	}
	return out
}

// appendRecordLocked frames and writes one record, honoring the fsync
// policy and the mid-append kill site, folds it into the live-job state,
// and compacts once the log carries CompactAfter more records than live
// jobs. The write is deliberately split in two so an injected crash
// leaves a genuinely torn frame on disk — the exact artifact a real
// mid-append power cut produces.
func (s *Store) appendRecordLocked(r rec) error {
	if s.dead {
		return ErrDead
	}
	r.T = time.Now().UnixNano()
	frame := encodeRecord(r)
	half := len(frame) / 2
	if _, err := s.journalF.Write(frame[:half]); err != nil {
		s.dead = true
		return fmt.Errorf("store: journal append: %w", err)
	}
	if err := faultinject.Hit(siteJournalAppend); err != nil {
		// Crash point: the first half of the frame is on disk, the rest
		// never lands. Fail-stop — the store behaves like the process
		// died here.
		s.dead = true
		return fmt.Errorf("store: journal append: %w", err)
	}
	if _, err := s.journalF.Write(frame[half:]); err != nil {
		s.dead = true
		return fmt.Errorf("store: journal append: %w", err)
	}
	s.journalLen += int64(len(frame))
	s.records++
	if s.opts.FsyncPolicy == FsyncAlways {
		if err := s.journalF.Sync(); err != nil {
			s.dead = true
			return fmt.Errorf("store: journal fsync: %w", err)
		}
	}
	s.live.apply(r)
	if s.records-len(s.live.jobs) >= s.opts.CompactAfter {
		return s.compactLocked()
	}
	return nil
}

// AppendAccept journals one acknowledged job before it is enqueued.
// The service must not acknowledge the job to the client until this
// returns nil: the write-ahead property is exactly that ordering.
// req should be json.Marshal output (compact, HTML-escaped), as Submit's
// is: the frame carries it verbatim, and compaction re-writes it as
// replayed, so frames equal json.Marshal of the record. req that is not
// JSON at all is refused here, before the lock: its frame would pass its
// CRC yet end replay, dropping every record after it.
func (s *Store) AppendAccept(id, fingerprint string, req json.RawMessage) error {
	if len(req) > 0 && !json.Valid(req) {
		return fmt.Errorf("store: encode journal record: req is not valid JSON")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendRecordLocked(rec{Op: opAccept, ID: id, FP: fingerprint, Req: req})
}

// ReserveJobIDs journals that handles up to through may be issued with
// no record of their own (a local hit's), so LastJobID passes them all.
func (s *Store) ReserveJobIDs(through string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendRecordLocked(rec{Op: opIDs, ID: through})
}

// AppendTombstone journals a job's terminal state. A missing tombstone
// is never an error for correctness — the job just re-runs on restart
// and dedupes against the report store — but it is what keeps the
// journal from re-enqueueing finished work.
func (s *Store) AppendTombstone(id, outcome string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrDead
	}
	if err := faultinject.Hit(siteJournalTombstone); err != nil {
		// Crash point: the job finished but its tombstone never landed —
		// the restart must re-enqueue it and converge via the report
		// store instead of re-simulating blindly.
		s.dead = true
		return fmt.Errorf("store: journal tombstone: %w", err)
	}
	return s.appendRecordLocked(rec{Op: opTomb, ID: id, Out: outcome})
}

// compactLocked rewrites the journal as one snap marker plus an accept
// per pending job, through replaceFileLocked, so a crash at any point
// leaves exactly one valid journal on disk. The rewrite is synced under
// every policy: losing it would lose acknowledged jobs. Any failure
// fail-stops the store.
func (s *Store) compactLocked() error {
	if s.dead {
		return ErrDead
	}
	now := time.Now().UnixNano()
	var next liveJobs // the state the rewritten journal replays to
	var journal []byte
	records := 0
	add := func(r rec) {
		r.T = now
		journal = append(journal, encodeRecord(r)...)
		next.apply(r)
		records++
	}
	add(rec{Op: opSnap, ID: s.live.lastID})
	for _, p := range s.live.pending() {
		add(rec{Op: opAccept, ID: p.ID, FP: p.Fingerprint, Req: p.Req})
	}
	if err := s.replaceFileLocked(s.journalPath, siteCompactRename, true, journal); err != nil {
		s.dead = true
		return fmt.Errorf("store: compact: %w", err)
	}
	// Swap the append handle onto the new file. The old handle still
	// points at the unlinked inode; close it after the new one is live.
	f, err := os.OpenFile(s.journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.dead = true
		return fmt.Errorf("store: compact reopen: %w", err)
	}
	old := s.journalF
	s.journalF = f
	old.Close()
	s.journalLen = int64(len(journal))
	s.records = records
	s.live = next
	s.lastCompaction = time.Now()
	s.compactions++
	return nil
}

// Compact forces a journal snapshot+compaction regardless of lag.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Pending returns the journal's live jobs — accepts without tombstones
// — in acknowledgement order. The slice is the recovery worklist; it
// reflects the journal as replayed at Open plus appends since.
func (s *Store) Pending() []PendingJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live.pending()
}

// LastJobID returns the highest job ID the journal has ever recorded or
// reserved (lexicographic — job IDs are fixed-width), so a restarted
// daemon can resume its ID sequence without colliding with handles
// clients still hold. Empty when the journal has never seen a job.
func (s *Store) LastJobID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live.lastID
}
