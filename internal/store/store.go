// Package store is gpuscoutd's crash-safe persistence layer: a
// write-ahead job journal, a persistent content-addressed report store
// behind the in-memory LRU, and a small slot for quarantine-breaker
// state — everything that must survive a process death under
// `gpuscoutd -data-dir`.
//
// Layout of one data directory:
//
//	data-dir/
//	  journal.wal     append-only framed job journal (journal.go)
//	  .tmp-*          transient: a compaction or breaker save in flight
//	  reports/<key>   one self-verifying entry per cached report
//	  reports/.tmp-*  transient: an entry write in flight
//	  corrupt/<key>   quarantined entries that failed verification
//	  breaker.json    persisted quarantine-breaker entries
//
// Durability contract: a job acknowledged to a client has its accept
// record on disk before the acknowledgement (write-ahead); a report
// entry is either absent, whole and checksum-verified, or quarantined
// — never served partial. Every multi-step mutation (entry writes,
// journal compaction, breaker saves) goes through temp-file + fsync +
// rename so a crash at any instruction leaves a recoverable directory.
//
// Fail-stop: the first injected or real I/O failure marks the Store
// dead and every later operation returns ErrDead — mirroring a crashed
// process instead of limping on with untracked on-disk state. Recovery
// is always a fresh Open.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpuscout/internal/faultinject"
)

// ErrDead is returned by every operation after the store has hit an
// I/O failure (or an injected crash point): the on-disk state may be
// mid-mutation, so the only safe continuation is a restart + Open.
var ErrDead = errors.New("store: store is dead (crashed mid-write; reopen the data dir)")

// FsyncPolicy selects how aggressively the journal and report writes
// are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every journal append and report write:
	// an acknowledged job survives even a kernel panic. The safe
	// default; costs one fsync per accepted job.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs the journal on a timer (Options.FsyncInterval):
	// a hard power cut can lose the last interval's acknowledgements,
	// a plain process crash loses nothing (the OS has the bytes).
	FsyncInterval
	// FsyncNever leaves flushing entirely to the OS: fastest, loses up
	// to the page-cache window on power loss. Process crashes are
	// still safe.
	FsyncNever
)

// String names the policy ("always", "interval", "never").
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// ParseFsyncPolicy is the inverse of FsyncPolicy.String.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Options tunes one data directory. The zero value selects safe
// defaults (fsync always, 1 GiB report bound).
type Options struct {
	// FsyncPolicy is the flush discipline (default FsyncAlways).
	FsyncPolicy FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// MaxBytes bounds the report store; least-recently-used entries
	// (by mtime) are evicted past it. <= 0 after defaulting disables
	// the bound (default 1 GiB; negative = unlimited).
	MaxBytes int64
	// CompactAfter triggers a journal snapshot+compaction once the log
	// holds this many more records than live jobs (default 512).
	CompactAfter int
}

func (o *Options) applyDefaults() {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 1 << 30
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 512
	}
}

// Store is one open data directory. All methods are safe for
// concurrent use.
type Store struct {
	dir         string
	opts        Options
	journalPath string

	mu       sync.Mutex
	dead     bool
	journalF *os.File

	// Journal state (journal.go).
	journalLen     int64
	records        int
	live           liveJobs
	lastCompaction time.Time
	compactions    uint64
	recoveredTorn  bool // replay hit a torn/corrupt tail at Open

	// Report-store state (reports.go).
	reports     map[string]reportEntry
	reportBytes int64
	corrupt     uint64 // entries quarantined since Open
	evicted     uint64 // entries evicted by GC since Open

	stopSync chan struct{} // FsyncInterval ticker shutdown
	syncDone chan struct{}
}

// Open prepares a data directory: creates the layout, removes orphan
// temp files from crashed writes, rebuilds the report index, replays
// the journal (truncating any torn tail), and starts the interval
// fsync loop when configured. The journal's pending jobs are then
// available via Pending.
func Open(dir string, opts Options) (*Store, error) {
	opts.applyDefaults()
	for _, d := range []string{dir, filepath.Join(dir, "reports"), filepath.Join(dir, "corrupt")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		journalPath: filepath.Join(dir, "journal.wal"),
		reports:     map[string]reportEntry{},
	}
	// A replace that crashed between temp write and rename leaves its
	// temp file beside the old state, which is still authoritative.
	for _, d := range []string{dir, filepath.Join(dir, "reports")} {
		orphans, _ := filepath.Glob(filepath.Join(d, tempPattern))
		for _, o := range orphans {
			os.Remove(o)
		}
	}

	if err := s.loadReportIndex(); err != nil {
		return nil, fmt.Errorf("store: scan reports: %w", err)
	}

	// Replay the journal and truncate the torn tail, if any, so appends
	// resume from the last whole frame.
	data, err := os.ReadFile(s.journalPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read journal: %w", err)
	}
	recs, validLen := replayJournal(data)
	s.recoveredTorn = validLen < int64(len(data))
	for _, r := range recs {
		s.live.apply(r)
	}
	s.records = len(recs)
	s.journalLen = validLen

	f, err := os.OpenFile(s.journalPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek journal: %w", err)
	}
	s.journalF = f

	if opts.FsyncPolicy == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop(s.stopSync, s.syncDone)
	}
	return s, nil
}

// syncLoop flushes the journal on a timer under FsyncInterval. The
// channels are passed in rather than re-read from the struct: Close
// nils s.stopSync after closing it, and a select that re-evaluated the
// field would block forever on the nil channel.
func (s *Store) syncLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if !s.dead && s.journalF != nil {
				s.journalF.Sync()
			}
			s.mu.Unlock()
		case <-stop:
			return
		}
	}
}

// syncDir flushes a directory's own metadata (new names after a rename);
// callers do so under FsyncAlways. Errors are swallowed: directory fsync
// is best-effort hardening on filesystems that need it. A variable so a
// test can observe which directory a write flushes.
var syncDir = func(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// tempPattern names every replaceFileLocked temp file; Open sweeps the
// ones a crash left.
const tempPattern = ".tmp-*"

// replaceFileLocked atomically replaces dst with the concatenated parts:
// a temp file in dst's own directory, fsynced when syncTemp, renamed
// onto dst, then under FsyncAlways a flush of that directory so the new
// name is durable too. A crash at any instruction leaves dst whole —
// old or new — and at most an orphan temp file, which Open sweeps.
// killSite, when set, is the crash point between write and rename.
func (s *Store) replaceFileLocked(dst, killSite string, syncTemp bool, parts ...[]byte) error {
	dir := filepath.Dir(dst)
	tmp, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = tmp.Write(p)
		}
	}
	if err == nil && syncTemp {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && killSite != "" {
		if err = faultinject.Hit(killSite); err != nil {
			// Crash point: the new content exists only as the temp file
			// and the rename never happens.
			s.dead = true
			return err
		}
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if s.opts.FsyncPolicy == FsyncAlways {
		syncDir(dir)
	}
	return nil
}

// Close flushes and closes the journal. The store must not be used
// afterwards; a dead store closes cleanly.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.stopSync != nil {
		close(s.stopSync)
		s.stopSync = nil
		done := s.syncDone
		s.mu.Unlock()
		<-done
		s.mu.Lock()
	}
	var err error
	if s.journalF != nil {
		if !s.dead && s.opts.FsyncPolicy != FsyncNever {
			err = s.journalF.Sync()
		}
		if cerr := s.journalF.Close(); err == nil {
			err = cerr
		}
		s.journalF = nil
	}
	s.dead = true
	s.mu.Unlock()
	return err
}

// SaveBreaker persists the quarantine breaker's exported state
// (opaque bytes to the store) atomically, so a restart cannot
// un-quarantine a poison fingerprint.
func (s *Store) SaveBreaker(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrDead
	}
	if err := s.replaceFileLocked(filepath.Join(s.dir, "breaker.json"), "", s.opts.FsyncPolicy == FsyncAlways, data); err != nil {
		return fmt.Errorf("store: save breaker: %w", err)
	}
	return nil
}

// LoadBreaker returns the persisted breaker state, if any.
func (s *Store) LoadBreaker() ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, "breaker.json"))
	if err != nil || len(data) == 0 {
		return nil, false
	}
	return data, true
}

// Stats is the observability snapshot /healthz and /metrics render.
type Stats struct {
	// Path is the data directory.
	Path string
	// ReportEntries / ReportBytes size the persistent report store.
	ReportEntries int
	ReportBytes   int64
	// JournalRecords is the total frames in the journal file;
	// JournalLiveJobs the accepts without tombstones; JournalLag their
	// difference — the garbage a compaction would reclaim.
	JournalRecords  int
	JournalLiveJobs int
	JournalLag      int
	// JournalBytes is the journal file's valid length.
	JournalBytes int64
	// LastCompaction is the zero time until the first compaction.
	LastCompaction time.Time
	// Compactions counts journal rewrites since Open.
	Compactions uint64
	// CorruptQuarantined counts entries moved to corrupt/ since Open.
	CorruptQuarantined uint64
	// Evicted counts entries removed by the byte-bound GC since Open.
	Evicted uint64
	// RecoveredTorn reports whether Open found (and truncated) a torn
	// journal tail.
	RecoveredTorn bool
	// Dead reports fail-stop: an I/O failure froze this store.
	Dead bool
}

// Stats snapshots the store's health.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Path:               s.dir,
		ReportEntries:      len(s.reports),
		ReportBytes:        s.reportBytes,
		JournalRecords:     s.records,
		JournalLiveJobs:    len(s.live.jobs),
		JournalLag:         s.records - len(s.live.jobs),
		JournalBytes:       s.journalLen,
		LastCompaction:     s.lastCompaction,
		Compactions:        s.compactions,
		CorruptQuarantined: s.corrupt,
		Evicted:            s.evicted,
		RecoveredTorn:      s.recoveredTorn,
		Dead:               s.dead,
	}
}
