package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gpuscout/internal/gpu"
	"gpuscout/internal/workloads"
)

// ErrQuarantined is returned by Submit for an input fingerprint whose
// recent attempts all failed: the per-fingerprint circuit breaker is
// open, and re-running a poison input would only burn another worker.
// The HTTP layer maps it to 422 with the prior failure message.
var ErrQuarantined = errors.New("service: input quarantined")

// QuarantineError is the typed rejection a quarantined submission gets:
// it unwraps to ErrQuarantined and carries how long the client should
// wait before the breaker will admit (another) probe. The HTTP layer
// turns RetryAfter into a Retry-After header on the 422.
type QuarantineError struct {
	// Failures is the consecutive-failure count that opened the breaker.
	Failures int
	// LastErr is the most recent failure message for this fingerprint.
	LastErr string
	// RetryAfter is the suggested wait before resubmitting.
	RetryAfter time.Duration
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("%v: %d consecutive failures, last: %s (retry after cool-down)",
		ErrQuarantined, e.Failures, e.LastErr)
}

// Unwrap keeps errors.Is(err, ErrQuarantined) working.
func (e *QuarantineError) Unwrap() error { return ErrQuarantined }

// Fingerprint is the one request identity: it keys the quarantine
// breaker, batch deduplication, and — in a cluster — the coordinator's
// consistent-hash routing, so repeated submissions of the same input
// land on the same replica's cache. It hashes the request's own wire
// form, so a new AnalyzeRequest field is part of the identity unless it
// is explicitly cleared here. Two fields are:
//
//   - timeout_ms bounds how long the job may run, not what it computes
//     (a report degraded by a short deadline is never cached);
//   - sim_workers is host parallelism, and the simulator's result is
//     bit-identical for every worker count.
//
// The two architecture fields are hashed as their canonical SM tag, so
// every spelling of one architecture ("", "sm_70", "sm70", "V100", ...)
// is one identity, as it already is one CacheKey; likewise a workload's
// scale is hashed as resolved, so 0 and the family's default are one
// identity (an unresolvable one stays as written, like an unknown arch).
func (r *AnalyzeRequest) Fingerprint() string {
	id := *r
	id.TimeoutMS, id.SimWorkers = 0, 0
	if id.Arch == "" {
		id.Arch = defaultArch
	}
	id.Arch, id.ArchCompare = archTag(id.Arch), archTag(id.ArchCompare)
	if id.Workload != "" {
		if n, err := workloads.Scale(id.Workload, id.Scale); err == nil {
			id.Scale = n
		}
	}
	wire, _ := json.Marshal(&id) // a struct of strings, numbers and bytes cannot fail to marshal
	sum := sha256.Sum256(wire)
	return hex.EncodeToString(sum[:16])
}

// defaultArch is the architecture of a request that names none.
const defaultArch = "sm_70"

// archTag maps a spelling gpu.ByName accepts to that architecture's SM
// tag. An unknown name stays as written: it keeps an identity of its
// own and fails at resolve, as a job.
func archTag(name string) string {
	if a, err := gpu.ByName(name); err == nil {
		return a.SM
	}
	return name
}

// breaker is the per-fingerprint circuit breaker behind quarantine: a
// fingerprint that reaches `after` consecutive failures is rejected at
// Submit until `cooldown` has passed since the breaker opened; the first
// submission after the cool-down is admitted as a probe (half-open), and
// one success clears the entry entirely.
type breaker struct {
	after    int
	cooldown time.Duration

	mu      sync.Mutex
	entries map[string]*breakerEntry
}

type breakerEntry struct {
	failures int
	lastErr  string
	failedAt time.Time // the last failure; an open entry's cool-down runs from it
	probing  bool      // a half-open probe is in flight; admit no others
}

// forgetOpenAfter is how many cool-downs an open entry may sit unprobed
// before it is forgotten: nobody has resubmitted the input in that long.
const forgetOpenAfter = 10

func newBreaker(after int, cooldown time.Duration) *breaker {
	return &breaker{after: after, cooldown: cooldown, entries: map[string]*breakerEntry{}}
}

// check admits or rejects a submission for fp. A rejection returns a
// *QuarantineError (wrapping ErrQuarantined) carrying the prior failure
// and a Retry-After hint. After the cool-down, exactly one concurrent
// submission is admitted as the half-open probe — the probing flag holds
// the slot until the probe's verdict (recordSuccess / recordFailure) or
// its interruption (release) — so a thundering herd against a poison
// fingerprint cannot burn more than one worker.
func (b *breaker) check(fp string) error {
	if b.after <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	if !ok || e.failures < b.after {
		return nil
	}
	if !e.probing && time.Since(e.failedAt) >= b.cooldown {
		// Half-open: this caller is the one probe.
		e.probing = true
		return nil
	}
	retry := b.cooldown - time.Since(e.failedAt)
	if retry < time.Second {
		// Cool-down elapsed but a probe is in flight: its verdict lands
		// within one job, so "come back shortly".
		retry = time.Second
	}
	return &QuarantineError{Failures: e.failures, LastErr: e.lastErr, RetryAfter: retry}
}

// recordFailure counts one failed execution of fp. A failed half-open
// probe re-opens the breaker for a full cool-down.
func (b *breaker) recordFailure(fp, errMsg string) {
	if b.after <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fp]
	if !ok {
		e = &breakerEntry{}
		b.entries[fp] = e
	}
	e.probing = false
	e.failures++
	e.lastErr = errMsg
	e.failedAt = time.Now()
}

// recordSuccess clears fp's failure history, reporting whether an entry
// existed (so callers persist breaker state only when it changed).
func (b *breaker) recordSuccess(fp string) bool {
	if b.after <= 0 {
		return false
	}
	b.mu.Lock()
	_, had := b.entries[fp]
	delete(b.entries, fp)
	b.mu.Unlock()
	return had
}

// release frees fp's half-open probe slot without a verdict — the probe
// job was cancelled or timed out before it could prove anything. Without
// this, an interrupted probe would wedge the breaker open forever.
func (b *breaker) release(fp string) {
	if b.after <= 0 {
		return
	}
	b.mu.Lock()
	if e, ok := b.entries[fp]; ok {
		e.probing = false
	}
	b.mu.Unlock()
}

// openCount reports how many fingerprints are currently quarantined.
func (b *breaker) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.entries {
		if e.failures >= b.after && time.Since(e.failedAt) < b.cooldown {
			n++
		}
	}
	return n
}

// breakerEntryJSON is the persisted wire form of one breaker entry. The
// probing flag is deliberately absent: a restart killed any in-flight
// probe, so the reloaded entry may admit a fresh one.
type breakerEntryJSON struct {
	Failures int       `json:"failures"`
	LastErr  string    `json:"last_err,omitempty"`
	FailedAt time.Time `json:"opened_at,omitempty"` // the name predates sub-threshold entries carrying it
}

// exportJSON snapshots the breaker's entries for persistence, so a
// restart cannot un-quarantine a poison fingerprint. It is also where
// the map is kept bounded — it runs after every failed job — by
// forgetting the entries that no longer decide anything: one below the
// threshold whose last failure is more than a cool-down old (failures
// that far apart are not consecutive), and an open one nobody has probed
// for forgetOpenAfter cool-downs. A stream of distinct failing inputs
// therefore holds one cool-down's worth of entries, not all of them.
func (b *breaker) exportJSON() []byte {
	b.mu.Lock()
	out := make(map[string]breakerEntryJSON, len(b.entries))
	for fp, e := range b.entries {
		limit := b.cooldown
		if e.failures >= b.after {
			limit = forgetOpenAfter * b.cooldown
		}
		if !e.probing && time.Since(e.failedAt) > limit {
			delete(b.entries, fp)
			continue
		}
		out[fp] = breakerEntryJSON{Failures: e.failures, LastErr: e.lastErr, FailedAt: e.failedAt}
	}
	b.mu.Unlock()
	data, _ := json.Marshal(out)
	return data
}

// importJSON restores entries exported by exportJSON, replacing any
// in-memory state for the same fingerprints. Unparseable state is
// ignored — the breaker starts cold rather than poisoning startup.
func (b *breaker) importJSON(data []byte) {
	var in map[string]breakerEntryJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return
	}
	b.mu.Lock()
	for fp, e := range in {
		b.entries[fp] = &breakerEntry{failures: e.Failures, lastErr: e.LastErr, failedAt: e.FailedAt}
	}
	b.mu.Unlock()
}

// backoffDelay is the capped-exponential-with-jitter retry schedule:
// base·2^(attempt-1), capped at cap, with the upper half jittered so
// retried jobs don't stampede the pool in lockstep.
func backoffDelay(base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << (attempt - 1)
	if d > cap || d <= 0 {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// durationRing remembers the last N job durations for the Retry-After
// estimate.
type durationRing struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int
}

func newDurationRing(size int) *durationRing {
	return &durationRing{buf: make([]time.Duration, size)}
}

func (r *durationRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the q-th quantile (0 < q ≤ 1) of the recorded
// durations, 0 with no samples. The Retry-After estimate uses p75
// rather than the mean: job durations are heavily skewed (cache hits
// are microseconds, cold simulations are seconds), and under that skew
// the mean is dragged toward whichever class happens to dominate the
// window — a client told to come back too soon just gets shed again.
// A p75 over the ring tracks the slow class as soon as it is a quarter
// of the traffic.
func (r *durationRing) quantile(q float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0
	}
	s := make([]time.Duration, r.n)
	copy(s, r.buf[:r.n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[r.n-1]
	}
	idx := int(math.Ceil(q*float64(r.n))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}
