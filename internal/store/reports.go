package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpuscout/internal/faultinject"
)

// The persistent report store backs the service's in-memory LRU: one
// file per report under reports/, named by the same v3 cache key the
// memory tier uses (a SHA-256 hex digest, so the name doubles as the
// content address). Each entry is self-verifying:
//
//	GPUSCOUT-REPORT v1 <sha256(body) hex> <body length> <fingerprint>\n
//	<body bytes>
//
// Reads re-hash the body against the header; any mismatch — flipped
// bits, a truncated write that somehow survived the atomic-rename
// discipline, manual tampering — moves the file to corrupt/ and
// reports a miss, so the caller recomputes and the next put self-heals
// the entry. The store never serves bytes it cannot prove whole.
//
// Writes are atomic: body to a temp file in the same directory, fsync
// per policy, then rename onto the final name. A crash mid-write
// leaves only a temp file (removed at the next Open); a crash between
// write and rename leaves the old entry (or absence) intact. There is
// no state in which a reader can observe a half-written entry.
//
// The store is size-bounded: when total bytes exceed Options.MaxBytes
// the least recently *used* entries go first, where recency is the
// file mtime — reads touch it, so a disk entry that keeps serving warm
// restarts stays resident while dead keys age out.

// siteReportRename is the kill site between an entry's temp-file write
// and its rename: the crash that loses the report but must never
// corrupt the store.
var siteReportRename = faultinject.Register("store.report.rename")

const (
	reportMagic = "GPUSCOUT-REPORT v1"
	// reportHeaderMax bounds the header line a reader will accept:
	// magic + 64-hex digest + length + fingerprint, with slack.
	reportHeaderMax = 256
)

// reportEntry is the in-memory index row for one on-disk report.
type reportEntry struct {
	bytes int64 // file size, header included
	mtime time.Time
}

// reportPath maps a cache key to its entry file. Keys are hex digests,
// but belt-and-braces: anything that could traverse is rejected.
func (s *Store) reportPath(key string) (string, bool) {
	if key == "" || len(key) > 128 || strings.ContainsAny(key, "/\\.") {
		return "", false
	}
	return filepath.Join(s.dir, "reports", key), true
}

// PutReport durably stores one rendered report under its cache key.
// The fingerprint rides along in the header so operators can map
// entries back to inputs without recomputing keys; the store indexes
// entries by key only.
func (s *Store) PutReport(key, fingerprint string, data []byte) error {
	path, ok := s.reportPath(key)
	if !ok {
		return fmt.Errorf("store: invalid report key %q", key)
	}
	sum := sha256.Sum256(data)
	header := fmt.Sprintf("%s %s %d %s\n", reportMagic, hex.EncodeToString(sum[:]), len(data), fingerprint)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrDead
	}
	// A fired kill site leaves the entry as a temp file only: Open removes
	// the orphan and the report is recomputed on the next request
	// (self-heal by recompute).
	if err := s.replaceFileLocked(path, siteReportRename, s.opts.FsyncPolicy == FsyncAlways, []byte(header), data); err != nil {
		return fmt.Errorf("store: report write: %w", err)
	}
	size := int64(len(header) + len(data))
	if old, ok := s.reports[key]; ok {
		s.reportBytes -= old.bytes
	}
	s.reports[key] = reportEntry{bytes: size, mtime: time.Now()}
	s.reportBytes += size
	s.gcLocked()
	return nil
}

// GetReport returns the verified report bytes for key. A checksum or
// framing failure quarantines the entry to corrupt/ and reports a miss
// — corrupt bytes are never returned. A hit refreshes the entry's
// recency (mtime) for the byte-bounded GC. A dead store reports a miss
// without touching the directory.
func (s *Store) GetReport(key string) ([]byte, bool) {
	path, ok := s.reportPath(key)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil, false
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			s.quarantineLocked(key, path)
		}
		return nil, false
	}
	body, ok := verifyReport(raw)
	if !ok {
		s.quarantineLocked(key, path)
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	if e, indexed := s.reports[key]; indexed {
		e.mtime = now
		s.reports[key] = e
	} else {
		// Entry appeared behind the index's back (operator copy-in);
		// adopt it.
		s.reports[key] = reportEntry{bytes: int64(len(raw)), mtime: now}
		s.reportBytes += int64(len(raw))
	}
	return body, true
}

// verifyReport checks an entry's header against its body and returns
// the body on success.
func verifyReport(raw []byte) (body []byte, ok bool) {
	digest, n, body, ok := parseHeader(raw)
	if !ok || n != len(body) {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != digest {
		return nil, false
	}
	return body, true
}

// parseHeader splits an entry's header line, which must end within
// reportHeaderMax bytes of raw, into the body's digest and length, and
// returns the bytes after it; ok is false unless the line is a v1 header.
func parseHeader(raw []byte) (digest string, n int, rest []byte, ok bool) {
	nl := bytes.IndexByte(raw[:min(len(raw), reportHeaderMax)], '\n')
	if nl < 0 {
		return "", 0, nil, false
	}
	fields := strings.Fields(string(raw[:nl]))
	// "GPUSCOUT-REPORT" "v1" <digest> <len> <fingerprint>
	if len(fields) != 5 || fields[0]+" "+fields[1] != reportMagic {
		return "", 0, nil, false
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil || n < 0 {
		return "", 0, nil, false
	}
	return fields[2], n, raw[nl+1:], true
}

// quarantineLocked moves a bad entry to corrupt/ (never deletes it —
// the bytes are evidence) and drops it from the index so it reads as a
// miss from now on.
func (s *Store) quarantineLocked(key, path string) {
	dst := filepath.Join(s.dir, "corrupt", key)
	if err := os.Rename(path, dst); err != nil && !os.IsNotExist(err) {
		// Rename across a broken filesystem: removing is the only way
		// to stop serving the entry.
		os.Remove(path)
	}
	if e, ok := s.reports[key]; ok {
		s.reportBytes -= e.bytes
		delete(s.reports, key)
	}
	s.corrupt++
}

// gcLocked evicts least-recently-used entries (by mtime) until the
// store is back under Options.MaxBytes. MaxBytes <= 0 disables the
// bound.
func (s *Store) gcLocked() {
	if s.opts.MaxBytes <= 0 || s.reportBytes <= s.opts.MaxBytes {
		return
	}
	type aged struct {
		key   string
		mtime time.Time
	}
	entries := make([]aged, 0, len(s.reports))
	for k, e := range s.reports {
		entries = append(entries, aged{k, e.mtime})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, a := range entries {
		if s.reportBytes <= s.opts.MaxBytes {
			break
		}
		path, ok := s.reportPath(a.key)
		if !ok {
			continue
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			continue
		}
		e := s.reports[a.key]
		s.reportBytes -= e.bytes
		delete(s.reports, a.key)
		s.evicted++
	}
}

// loadReportIndex scans reports/ at Open, after the orphan temp files
// are swept: entry headers are checked (header line only — bodies are
// verified lazily on Get), and the byte/mtime index is rebuilt.
func (s *Store) loadReportIndex() error {
	dir := filepath.Join(s.dir, "reports")
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(dir, name)
		info, err := de.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		if !validEntryHeader(path) {
			s.quarantineLocked(name, path)
			continue
		}
		s.reports[name] = reportEntry{bytes: info.Size(), mtime: info.ModTime()}
		s.reportBytes += info.Size()
	}
	s.gcLocked()
	return nil
}

// validEntryHeader parses just the header line of an entry file.
func validEntryHeader(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	head := make([]byte, reportHeaderMax)
	n, _ := io.ReadFull(f, head)
	_, _, _, ok := parseHeader(head[:n])
	return ok
}
