// Package service implements gpuscoutd, the long-lived GPUscout analysis
// service: a bounded job queue feeding a worker pool, a tiered
// content-addressed report cache in front of the advisor.Run pipeline,
// and a hand-rolled Prometheus-format metrics registry — stdlib only.
//
// POST /v1/analyze resolves the target (a workload's name and scale, or
// an upload's SASS) and keys it; a hit in memory or on disk is answered
// at once, a miss is enqueued (429 + Retry-After when the queue is full)
// for a worker to walk the one request path (executeAttempt): lookup
// memory → disk → peer, and only on a miss lower → analyze → verify →
// sweep — under a per-job context whose timeout or cancellation
// interrupts the simulated launch itself — then encode and publish.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuscout/internal/advisor"
	"gpuscout/internal/cubin"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/store"
	"gpuscout/internal/workloads"
)

// ErrDurability is returned by Submit when the write-ahead journal
// cannot record the job: the service refuses to acknowledge work it
// could lose across a crash. The HTTP layer maps it to 503.
var ErrDurability = errors.New("service: journal write failed; job not accepted")

// Config tunes the service. The zero value selects sane defaults.
type Config struct {
	// Workers is the number of concurrent analysis workers
	// (default: GOMAXPROCS, capped at 8).
	Workers int
	// QueueDepth bounds how many accepted jobs may wait for a worker;
	// beyond it, submissions are shed with ErrQueueFull (default 64).
	QueueDepth int
	// CacheEntries bounds the report cache (default 256; negative
	// disables caching).
	CacheEntries int
	// DefaultTimeout bounds each job unless the request overrides it
	// (default 2m).
	DefaultTimeout time.Duration
	// MaxUploadBytes caps the POST /v1/analyze body (default 8 MiB).
	MaxUploadBytes int64
	// MaxJobsRetained caps how many finished jobs are kept for
	// GET /v1/jobs/{id} before the oldest are pruned (default 1024).
	MaxJobsRetained int
	// RetryAttempts is the total number of execution attempts for a job
	// whose failure is transient — a recovered panic or injected fault
	// (default 2; 1 disables retrying).
	RetryAttempts int
	// RetryBackoff is the base delay before a retry; attempt n waits
	// base·2^(n-1) capped at 2s, upper half jittered (default 100ms).
	RetryBackoff time.Duration
	// QuarantineAfter opens the per-fingerprint circuit breaker after
	// this many consecutive job failures, so poison inputs are rejected
	// at Submit instead of re-burning workers (default 2; negative
	// disables quarantine).
	QuarantineAfter int
	// QuarantineCooldown is how long an open breaker rejects a
	// fingerprint before admitting a probe attempt (default 30s).
	QuarantineCooldown time.Duration
	// Mode labels this process's role in a deployment ("standalone",
	// "worker" behind a coordinator, or "coordinator"); it is surfaced
	// by /healthz so operators and cluster membership checks can tell
	// replicas apart (default "standalone").
	Mode string
	// MaxBatchItems caps how many requests one POST /v1/analyze/batch
	// body may carry (default 4096).
	MaxBatchItems int
	// PeerFill, when set, is consulted after a local cache miss and
	// before the pipeline runs: given the job's input fingerprint and
	// report cache key it may return the marshaled report bytes from a
	// peer replica's cache (the cluster's two-tier cache-fill protocol).
	// A returned report that is valid JSON is stored locally and served
	// as a cache hit; anything else, and a miss, error, or timeout inside
	// the hook, silently falls through to local simulation — peer fill is
	// an optimization, never a dependency.
	PeerFill func(ctx context.Context, fingerprint, cacheKey string) ([]byte, bool)
	// Store, when set, is the crash-safe persistence layer under
	// -data-dir: accepted jobs are journaled before they are
	// acknowledged (and re-enqueued after a restart), clean reports are
	// written through to the content-addressed disk store (probed
	// between the memory cache and peer fill), and quarantine-breaker
	// state survives restarts. Nil runs the service purely in memory.
	// The caller owns the store's lifecycle and closes it after Close.
	Store *store.Store
	// CacheMaxBytes additionally bounds the in-memory report cache by
	// total payload bytes (0 = entries-only bound).
	CacheMaxBytes int64
	// SimWorkers is the default per-launch simulation parallelism
	// (sim.Config.Workers) for jobs that don't set sim_workers. The
	// default is 1: the pool already runs Workers jobs concurrently, so
	// fanning each launch out across cores would oversubscribe the
	// machine; raise it on a lightly loaded daemon to trade job
	// throughput for single-job latency. Results are identical either
	// way (the simulator's determinism guarantee).
	SimWorkers int
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 8 << 20
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 1024
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = 1
	}
	if c.Mode == "" {
		c.Mode = "standalone"
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 4096
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 2
	} else if c.QuarantineAfter < 0 {
		c.QuarantineAfter = 0 // disabled
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = 30 * time.Second
	}
}

// Service is the gpuscoutd core, independent of HTTP: Submit feeds the
// queue, Handler (server.go) wraps it for the wire.
type Service struct {
	cfg        Config
	pool       *pool
	cache      *reportCache
	reg        *Registry
	start      time.Time
	breaker    *breaker
	durations  *durationRing
	draining   atomic.Bool // readiness flipped off before shutdown
	recovering atomic.Bool // journal replay re-enqueueing jobs; /readyz 503

	idMu              sync.Mutex
	nextID, idCeiling uint64 // last handle issued, highest the journal reserved

	jobsMu sync.Mutex
	jobs   map[string]*Job
	order  []string // creation order, for pruning finished jobs

	// Metrics (the observability surface of the request path).
	jobsInflight  *Gauge
	jobsFinished  map[State]*Counter
	cacheHits     *Counter
	cacheMisses   *Counter
	peerFillHits  *Counter
	peerFillMiss  *Counter
	peerServes    *Counter
	batchRequests *Counter
	batchItems    *Counter
	batchDeduped  *Counter
	stageDuration map[string]*Histogram
	simWall       *Histogram
	simSpeedup    *Histogram
	verifications map[scout.Verdict]*Counter
	stagePanics   map[string]*Counter
	retries       *Counter
	quarantined   *Counter
	storeHits     *Counter
	storeMisses   *Counter
	recoveredJobs *Counter

	degradedMu sync.Mutex
	degraded   map[string]*Counter // gpuscoutd_degraded_reports_total, by kind
}

// New builds a Service and starts its worker pool.
func New(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	s := &Service{
		cfg:       cfg,
		cache:     newReportCache(cfg.CacheEntries, cfg.CacheMaxBytes),
		reg:       NewRegistry(),
		start:     time.Now(),
		jobs:      map[string]*Job{},
		breaker:   newBreaker(cfg.QuarantineAfter, cfg.QuarantineCooldown),
		durations: newDurationRing(32),
		degraded:  map[string]*Counter{},
	}
	// Durable state first: reload the breaker (a restart must not
	// un-quarantine a poison input) and resume the job-ID sequence past
	// every handle the journal has ever recorded or reserved, so
	// recovered jobs keep their IDs and new jobs cannot collide with
	// them, then reserve the first block (a failure leaves it to newID).
	var pendingJobs []store.PendingJob
	if st := cfg.Store; st != nil {
		if data, ok := st.LoadBreaker(); ok {
			s.breaker.importJSON(data)
		}
		if last := st.LastJobID(); strings.HasPrefix(last, "j") {
			if n, err := strconv.ParseUint(last[1:], 10, 64); err == nil {
				s.nextID, s.idCeiling = n, n
			}
		}
		pendingJobs = st.Pending()
		s.reserveIDsLocked(s.nextID + 1)
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.execute)

	r := s.reg
	r.NewGaugeFunc("gpuscoutd_queue_depth",
		"Jobs accepted and waiting for a worker.",
		func() float64 { return float64(s.pool.depth()) })
	s.jobsInflight = r.NewGauge("gpuscoutd_jobs_inflight",
		"Jobs currently executing on the worker pool.")
	s.jobsFinished = map[State]*Counter{}
	for _, st := range []State{StateDone, StateFailed, StateCancelled, StateTimeout} {
		s.jobsFinished[st] = r.NewCounter("gpuscoutd_jobs_finished_total",
			"Jobs finished, by terminal state.", Label{"state", string(st)})
	}
	s.cacheHits = r.NewCounter("gpuscoutd_cache_hits_total",
		"Analyses served from the content-addressed report cache.")
	s.cacheMisses = r.NewCounter("gpuscoutd_cache_misses_total",
		"Analyses that had to run the pipeline.")
	r.NewGaugeFunc("gpuscoutd_cache_entries",
		"Reports currently cached.",
		func() float64 { return float64(s.cache.size()) })
	r.NewGaugeFunc("gpuscoutd_cache_bytes",
		"Total payload bytes held by the in-memory report cache.",
		func() float64 { return float64(s.cache.bytesUsed()) })
	s.storeHits = r.NewCounter("gpuscoutd_store_hits_total",
		"Memory-cache misses served whole from the persistent report store (warm restarts, rebalanced keys).")
	s.storeMisses = r.NewCounter("gpuscoutd_store_misses_total",
		"Memory-cache misses that also missed the persistent report store.")
	s.recoveredJobs = r.NewCounter("gpuscoutd_recovered_jobs_total",
		"Journaled jobs re-enqueued by startup recovery.")
	if st := cfg.Store; st != nil {
		r.NewGaugeFunc("gpuscoutd_store_report_bytes",
			"Bytes held by the persistent report store.",
			func() float64 { return float64(st.Stats().ReportBytes) })
		r.NewGaugeFunc("gpuscoutd_store_report_entries",
			"Reports held by the persistent report store.",
			func() float64 { return float64(st.Stats().ReportEntries) })
		r.NewGaugeFunc("gpuscoutd_store_journal_records",
			"Frames in the write-ahead job journal.",
			func() float64 { return float64(st.Stats().JournalRecords) })
		r.NewGaugeFunc("gpuscoutd_store_journal_lag",
			"Journal records beyond the live job set — the garbage the next compaction reclaims.",
			func() float64 { return float64(st.Stats().JournalLag) })
		r.NewGaugeFunc("gpuscoutd_store_corrupt_quarantined",
			"Report entries quarantined to corrupt/ since the store opened.",
			func() float64 { return float64(st.Stats().CorruptQuarantined) })
	}
	s.peerFillHits = r.NewCounter("gpuscoutd_peer_fill_hits_total",
		"Local cache misses served by a peer replica's cache (two-tier fill).")
	s.peerFillMiss = r.NewCounter("gpuscoutd_peer_fill_misses_total",
		"Peer cache-fill attempts that fell through to local simulation.")
	s.peerServes = r.NewCounter("gpuscoutd_peer_cache_serves_total",
		"Cache entries served to peer replicas via /internal/v1/cache.")
	s.batchRequests = r.NewCounter("gpuscoutd_batch_requests_total",
		"POST /v1/analyze/batch requests accepted.")
	s.batchItems = r.NewCounter("gpuscoutd_batch_items_total",
		"Analysis requests carried inside batch bodies.")
	s.batchDeduped = r.NewCounter("gpuscoutd_batch_deduped_total",
		"Batch items that shared a fingerprint with an earlier item in the same batch and were folded into its job before enqueue.")
	s.stageDuration = map[string]*Histogram{}
	for _, stage := range []string{"build", "analyze", "verify", "sweep", "encode"} {
		s.stageDuration[stage] = r.NewHistogram("gpuscoutd_stage_seconds",
			"Per-stage job latency: build (request resolution plus, on a miss, lowering), analyze (pipeline), verify (counterfactual re-runs), sweep (perturbation re-simulation), encode (report JSON).",
			nil, Label{"stage", stage})
	}
	r.NewGaugeFunc("gpuscoutd_sim_workers_default",
		"Per-launch simulation parallelism applied to jobs that don't set sim_workers.",
		func() float64 { return float64(s.cfg.SimWorkers) })
	s.verifications = map[scout.Verdict]*Counter{}
	for _, v := range []scout.Verdict{scout.VerdictConfirmed, scout.VerdictNeutral, scout.VerdictRefuted} {
		s.verifications[v] = r.NewCounter("gpuscoutd_verifications_total",
			"Counterfactually verified recommendations, by measured verdict.",
			Label{"verdict", string(v)})
	}
	s.simWall = r.NewHistogram("gpuscoutd_sim_wall_seconds",
		"Host wall time of each simulated launch's SM phase.", nil)
	s.simSpeedup = r.NewHistogram("gpuscoutd_sim_speedup",
		"Achieved parallel speedup per simulated launch (aggregate per-SM time over wall time).",
		[]float64{1, 1.25, 1.5, 2, 3, 4, 6, 8, 12, 16})
	s.stagePanics = map[string]*Counter{}
	for _, stage := range []string{scout.StageParse, scout.StageScout, scout.StageSim, scout.StageVerify} {
		s.stagePanics[stage] = r.NewCounter("gpuscoutd_stage_panics_total",
			"Panics recovered inside the pipeline, by stage.", Label{"stage", stage})
	}
	s.retries = r.NewCounter("gpuscoutd_retries_total",
		"Job attempts retried after a transient stage failure.")
	s.quarantined = r.NewCounter("gpuscoutd_quarantined_total",
		"Submissions rejected because the input fingerprint is quarantined.")
	r.NewGaugeFunc("gpuscoutd_quarantine_open",
		"Input fingerprints currently held by the circuit breaker.",
		func() float64 { return float64(s.breaker.openCount()) })
	RegisterRuntimeGauges(r)
	// Pre-register the common degraded-report kinds so the series render
	// from zero; rarer kinds appear on first use.
	for _, kind := range []string{
		"sim_timeout", "sim_panic", "sim_error",
		"scout_timeout", "scout_panic", "scout_error",
		"verify_timeout", "verify_panic", "verify_error",
	} {
		s.degradedCounter(kind)
	}
	// Startup recovery: re-enqueue every journaled job that never reached
	// a tombstone. /readyz stays 503 until the replay has drained into
	// the queue; jobs whose reports already landed on disk resolve as
	// instant store hits instead of re-simulating.
	if len(pendingJobs) > 0 {
		s.recovering.Store(true)
		go s.recoverJobs(pendingJobs)
	}
	return s, nil
}

// recoverJobs replays the journal's pending set through the normal
// execution path. Each job keeps its original ID (clients may still
// hold the handle), is re-validated (the journal could have been
// written by an older build), and respects the reloaded quarantine
// breaker — a poison input does not get a free re-run just because the
// daemon restarted mid-job.
func (s *Service) recoverJobs(pending []store.PendingJob) {
	defer s.recovering.Store(false)
	st := s.cfg.Store
	for _, p := range pending {
		var req AnalyzeRequest
		if err := json.Unmarshal(p.Req, &req); err != nil || req.Validate() != nil {
			st.AppendTombstone(p.ID, string(StateFailed))
			continue
		}
		fp := req.Fingerprint()
		if err := s.breaker.check(fp); err != nil {
			s.quarantined.Inc()
			st.AppendTombstone(p.ID, string(StateCancelled))
			continue
		}
		j := s.admit(p.ID, req, fp, nil)

		// The queue may be smaller than the recovery backlog: wait for
		// drain rather than dropping acknowledged work.
		for err := s.pool.trySubmit(j); err != nil; err = s.pool.trySubmit(j) {
			if errors.Is(err, ErrClosed) {
				j.cancel()
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		s.recoveredJobs.Inc()
	}
}

// persistBreaker writes the breaker's current state through the store,
// outside the breaker's lock. Failures are swallowed: breaker
// persistence is hardening, not a correctness dependency.
func (s *Service) persistBreaker() {
	if s.cfg.Store == nil {
		return
	}
	_ = s.cfg.Store.SaveBreaker(s.breaker.exportJSON())
}

// RecoveredJobs reports how many journaled jobs startup recovery has
// re-enqueued (surfaced by /healthz).
func (s *Service) RecoveredJobs() uint64 { return s.recoveredJobs.Value() }

// degradedCounter finds or registers the degraded-report counter for one
// "<stage>_<kind>" label value.
func (s *Service) degradedCounter(kind string) *Counter {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	c, ok := s.degraded[kind]
	if !ok {
		c = s.reg.NewCounter("gpuscoutd_degraded_reports_total",
			"Reports shipped with a degradation ledger, by stage_kind.",
			Label{"kind", kind})
		s.degraded[kind] = c
	}
	return c
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to drain. Readiness flips off first so a load
// balancer stops routing before the queue starts rejecting.
func (s *Service) Close() {
	s.BeginShutdown()
	s.jobsMu.Lock()
	for _, j := range s.jobs {
		j.Cancel()
	}
	s.jobsMu.Unlock()
	s.pool.shutdown()
}

// BeginShutdown flips /readyz to 503 without stopping work: the graceful
// shutdown sequence is BeginShutdown → drain the HTTP server → Close.
func (s *Service) BeginShutdown() { s.draining.Store(true) }

// Ready reports whether the service should receive new traffic, with the
// reason when it should not.
func (s *Service) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "shutting down"
	}
	if s.recovering.Load() {
		return false, "recovering: replaying job journal"
	}
	if d := s.pool.depth(); d >= s.cfg.QueueDepth {
		return false, fmt.Sprintf("queue saturated (%d/%d)", d, s.cfg.QueueDepth)
	}
	return true, "ok"
}

// retryAfterSeconds estimates when a shed client should come back:
// (queued jobs + 1) × the p75 of recent job durations, spread over the
// worker count, clamped to [1, 30] seconds. p75 rather than the mean:
// durations are skewed (cache hits vs cold simulations), and a mean
// dominated by hits tells clients to come back long before the queue of
// cold jobs can possibly have drained.
func (s *Service) retryAfterSeconds() int {
	est75 := s.durations.quantile(0.75)
	if est75 <= 0 {
		est75 = time.Second
	}
	est := float64(est75) * float64(s.pool.depth()+1) / float64(s.cfg.Workers)
	secs := int(math.Ceil(est / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// admit creates the job for an accepted request — under its own
// deadline, carrying its quarantine identity and journal hook — and
// registers it for GET /v1/jobs/{id}. Submit and startup recovery share
// it, so a recovered job is indistinguishable from a fresh one; Submit's
// resolution (nil on recovery) rides along for the first attempt.
func (s *Service) admit(id string, req AnalyzeRequest, fp string, res *resolution) *Job {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j := newJob(id, req, ctx, cancel)
	j.fingerprint = fp
	j.resolved.Store(res)
	if st := s.cfg.Store; st != nil { // journal the terminal state: the job's tombstone
		j.onFinish = func(terminal State) { st.AppendTombstone(id, string(terminal)) }
	}
	s.register(j)
	return j
}

func (s *Service) register(j *Job) { // for GET /v1/jobs/{id}
	s.jobsMu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.pruneLocked()
	s.jobsMu.Unlock()
}

// Submit answers a local hit with a finished job (no journal record,
// worker or queue slot) and journals and enqueues a miss. It returns
// ErrQueueFull when the queue is full, ErrClosed during shutdown and
// ErrDurability on a dead store (hit or not), else a validation error.
func (s *Service) Submit(req AnalyzeRequest) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	fp := req.Fingerprint()
	if err := s.breaker.check(fp); err != nil {
		s.quarantined.Inc()
		return nil, err
	}
	if s.pool.closed.Load() {
		return nil, ErrClosed
	}
	if st := s.cfg.Store; st != nil && st.Stats().Dead {
		return nil, fmt.Errorf("%w: %v", ErrDurability, store.ErrDead)
	}
	id, err := s.newID()
	if err != nil {
		return nil, err
	}
	// The worker's first step: a miss hands it (or its error) to attempt 1.
	res := s.resolve(req)
	if res.err == nil {
		if data, tier := s.lookupLocal(res.key); tier != "" {
			if tier == tierMemory {
				s.cacheHits.Inc()
			}
			s.stageDuration["build"].Observe(res.took.Seconds())
			if s.breaker.recordSuccess(fp) {
				s.persistBreaker()
			}
			j := newJob(id, req, context.Background(), func() {})
			j.started, j.attempts = j.created, 1
			j.finish(s.countFinish(StateDone), data, "", tier)
			s.register(j)
			return j, nil
		}
	}
	j := s.admit(id, req, fp, res)

	rollback := func() {
		j.cancel()
		s.jobsMu.Lock()
		delete(s.jobs, id)
		if n := len(s.order); n > 0 && s.order[n-1] == id {
			s.order = s.order[:n-1]
		}
		s.jobsMu.Unlock()
	}

	// Write-ahead: the accept record must be on disk before the client
	// hears the job ID. A journal that cannot take the record means the
	// acknowledgement would be a lie — refuse the job instead.
	if st := s.cfg.Store; st != nil {
		reqJSON, err := json.Marshal(req)
		if err == nil {
			err = st.AppendAccept(id, fp, reqJSON)
		}
		if err != nil {
			rollback()
			return nil, fmt.Errorf("%w: %v", ErrDurability, err)
		}
	}

	if err := s.pool.trySubmit(j); err != nil {
		rollback()
		if st := s.cfg.Store; st != nil {
			// The accept is journaled but the job was shed: tombstone it
			// so a restart does not resurrect a job the client was told
			// to retry. Best-effort — a lost tombstone only costs one
			// redundant re-run.
			st.AppendTombstone(id, string(StateCancelled))
		}
		return nil, err
	}
	return j, nil
}

const idBlock = 1024 // job handles one journal reservation covers

// newID issues the next job handle (ErrDurability: none reservable).
func (s *Service) newID() (string, error) {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	if err := s.reserveIDsLocked(s.nextID + 1); err != nil {
		return "", err
	}
	s.nextID++
	return fmt.Sprintf("j%08d", s.nextID), nil
}

// reserveIDsLocked makes handle n issuable. With a store, handles are
// issued only up to a ceiling the journal has reserved, a block at a
// time, and a restart resumes past it (LastJobID), so no handle is
// issued twice, a local hit's included, which has no record of its own.
func (s *Service) reserveIDsLocked(n uint64) error {
	for s.cfg.Store != nil && n > s.idCeiling {
		if err := s.cfg.Store.ReserveJobIDs(fmt.Sprintf("j%08d", s.idCeiling+idBlock)); err != nil {
			return fmt.Errorf("%w: %v", ErrDurability, err)
		}
		s.idCeiling += idBlock
	}
	return nil
}

// Job looks up a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// pruneLocked evicts the oldest *finished* jobs once over the retention
// cap; queued and running jobs are never evicted. It works from the head
// of the creation order: in the steady state the oldest retained job is
// finished and one admit evicts exactly that entry, and a live entry is
// only stepped over, so the walk is bounded by the jobs in flight. (An
// id a rolled-back Submit left behind is dropped when the walk meets it.)
// An eviction moves the i live ids ahead of it up one slot and drops the
// head, so it costs the jobs stepped over, not the jobs retained.
func (s *Service) pruneLocked() {
	for i := 0; len(s.jobs) > s.cfg.MaxJobsRetained && i < len(s.order); {
		id := s.order[i]
		if j, ok := s.jobs[id]; ok && !j.StateNow().Terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		copy(s.order[1:i+1], s.order[:i])
		s.order = s.order[1:]
	}
}

// execute runs one job on a worker goroutine, retrying transient stage
// failures (recovered panics, injected faults) with capped exponential
// backoff + jitter, and feeding the quarantine breaker on final failure.
func (s *Service) execute(j *Job) {
	// abort ends a job whose context expired or was cancelled: no verdict
	// for the breaker, so a half-open probe slot is freed.
	abort := func(msg string) {
		s.breaker.release(j.fingerprint)
		j.finish(s.countFinish(j.interrupted()), nil, msg, "")
	}
	if err := j.ctx.Err(); err != nil {
		abort("aborted before start: " + err.Error())
		return
	}
	j.markRunning()
	s.jobsInflight.Add(1)
	defer s.jobsInflight.Add(-1)
	defer func(t time.Time) { s.durations.record(time.Since(t)) }(time.Now())

	var lastErr error
	for attempt := 1; ; attempt++ {
		j.setAttempts(attempt)
		lastErr = s.executeAttempt(j)
		if lastErr == nil {
			if s.breaker.recordSuccess(j.fingerprint) {
				s.persistBreaker()
			}
			return
		}
		s.notePanic(lastErr)
		if j.ctx.Err() != nil {
			abort(lastErr.Error())
			return
		}
		if attempt >= s.cfg.RetryAttempts || !scout.TransientError(lastErr) {
			break
		}
		s.retries.Inc()
		select {
		case <-time.After(backoffDelay(s.cfg.RetryBackoff, 2*time.Second, attempt)):
		case <-j.ctx.Done():
			abort(lastErr.Error())
			return
		}
	}
	s.breaker.recordFailure(j.fingerprint, lastErr.Error())
	s.persistBreaker()
	j.finish(s.countFinish(StateFailed), nil, lastErr.Error(), "")
}

// notePanic counts a fatal recovered panic in the stage-panic metric.
// (Panics that were degraded into a shipped report are counted from the
// report's ledger instead.)
func (s *Service) notePanic(err error) {
	var se *scout.StageError
	if errors.As(err, &se) && se.PanicValue != nil {
		if c, ok := s.stagePanics[se.Stage]; ok {
			c.Inc()
		}
	}
}

// lookupLocal probes this replica's own tiers: the memory cache, then
// the persistent store (a warm restart, or a replica rejoining the ring,
// finds previously computed reports on disk); a disk hit is promoted
// into the memory tier. It returns the tier that answered ("" on a
// miss); the caller counts a memory hit and, with a store, a disk miss
// (not Submit: a worker's lookup follows its miss).
func (s *Service) lookupLocal(key string) (data []byte, tier string) {
	if data, ok := s.cache.get(key); ok {
		return data, tierMemory
	}
	if st := s.cfg.Store; st != nil {
		if data, ok := st.GetReport(key); ok {
			s.storeHits.Inc()
			s.cache.put(key, data)
			return data, tierDisk
		}
	}
	return nil, ""
}

// lookup is the one tiered probe in front of the pipeline: memory → disk
// → peer → miss (tier ""). The peer tier exists because, in a cluster, a
// key this replica has never seen may already be warm in the ring
// owner's cache (the key was rebalanced here, or we are taking failover
// traffic): one bounded peer lookup is far cheaper than re-simulating, a
// hit is written through both local tiers, and any failure falls through.
// A peer's bytes are the one report source from outside this process
// (the local tiers hold what MarshalJSON produced, the store's behind a
// checksum), and every answer splices a report in verbatim: bytes that
// are not JSON are refused here, once per fill, and count as a miss.
func (s *Service) lookup(ctx context.Context, fingerprint, key string) (data []byte, tier string) {
	if data, tier = s.lookupLocal(key); tier != "" {
		if tier == tierMemory {
			s.cacheHits.Inc()
		}
		return data, tier
	}
	if s.cfg.Store != nil {
		s.storeMisses.Inc()
	}
	if s.cfg.PeerFill != nil {
		if data, ok := s.cfg.PeerFill(ctx, fingerprint, key); ok && len(data) > 0 && json.Valid(data) {
			s.peerFillHits.Inc()
			s.publish(key, fingerprint, data)
			return data, tierPeer
		}
		s.peerFillMiss.Inc()
	}
	s.cacheMisses.Inc()
	return nil, ""
}

// publish stores report bytes in the memory cache and writes them
// through to the persistent store. A failed disk write is swallowed: the
// report is already on its way to the client, and losing the disk copy
// only costs a future recompute.
func (s *Service) publish(key, fingerprint string, data []byte) {
	s.cache.put(key, data)
	if st := s.cfg.Store; st != nil {
		_ = st.PutReport(key, fingerprint, data)
	}
}

// executeAttempt is one end-to-end pass at a job, every stage of the
// request path exactly once: resolve → key → lookup → lower → analyze →
// verify → sweep → (compare) → encode → publish. A hit compiles nothing:
// lowering is the pipeline's first step. A plain request resolves to one
// target, an arch_compare request to two whose reports are diffed; that
// is the only difference between them. It returns nil when the job
// reached a terminal state itself; an error means the attempt failed
// and the retry loop decides what happens.
func (s *Service) executeAttempt(j *Job) error {
	if err := scout.Guard(scout.StageParse, siteAttempt, func() error { return faultinject.Hit(siteAttempt) }); err != nil {
		return err
	}
	res := j.resolved.Swap(nil) // the first attempt's, made at Submit
	if res == nil {             // a retry, or a job recovered from the journal
		res = s.resolve(j.req)
	}
	// "build" is resolve plus, on a miss, each target's lowering.
	build := res.took
	defer func() { s.stageDuration["build"].Observe(build.Seconds()) }()
	if res.err != nil {
		return res.err
	}

	// The pipeline is not entered on a hit.
	plans, key := res.plans, res.key
	if data, tier := s.lookup(j.ctx, j.fingerprint, key); tier != "" {
		j.finish(s.countFinish(StateDone), data, "", tier)
		return nil
	}

	// Stage budgets are applied inside the pipeline: a slow or crashing
	// dynamic pillar, verification or sweep comes back as a degraded
	// report with ledger entries, not as an error.
	reps := make([]*scout.Report, len(plans))
	var ledger []scout.Degradation
	for i, p := range plans {
		out, err := advisor.Run(j.ctx, p)
		build += out.Build
		s.observeOutcome(p, out)
		if err != nil {
			return err
		}
		reps[i] = out.Report
		ledger = append(ledger, out.Report.Degradations...)
	}
	var doc json.Marshaler = reps[0]
	if len(reps) == 2 {
		doc = scout.CompareReports(reps[0], reps[1])
	}

	// Degradation accounting: every shipped ledger entry is visible in
	// /metrics — one degraded_reports tick per distinct stage_kind, one
	// stage_panics tick per recovered panic.
	if len(ledger) > 0 {
		kinds := map[string]bool{}
		for _, d := range ledger {
			kinds[d.Stage+"_"+d.Kind] = true
			if d.Kind == scout.DegradePanic {
				if c, ok := s.stagePanics[d.Stage]; ok {
					c.Inc()
				}
			}
		}
		for kind := range kinds {
			s.degradedCounter(kind).Inc()
		}
		j.setDegradations(len(ledger))
	}

	// Encode once; publish the immutable bytes — but never a degraded
	// report, so a later identical request gets a chance at the full
	// result.
	t1 := time.Now()
	data, err := doc.MarshalJSON()
	s.stageDuration["encode"].Observe(time.Since(t1).Seconds())
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	// MarshalIndent returns a buffer sized for its worst case, a third
	// larger than a report; the job registry and the cache keep these
	// bytes as long as they keep the entry, so hand them an exact copy.
	data = bytes.Clone(data)
	if len(ledger) == 0 {
		s.publish(key, j.fingerprint, data)
	}
	j.finish(s.countFinish(StateDone), data, "", tierSimulated)
	return nil
}

// observeOutcome feeds one pipeline run into the stage histograms and
// the verdict counters; a stage the plan did not ask for records nothing.
func (s *Service) observeOutcome(p advisor.Plan, out *advisor.Outcome) {
	s.stageDuration["analyze"].Observe(out.Analyze.Seconds())
	if rep := out.Report; rep != nil && rep.Result != nil {
		s.simWall.Observe(rep.Result.Host.WallSeconds)
		s.simSpeedup.Observe(rep.Result.Host.Speedup())
	}
	if p.Verify {
		s.stageDuration["verify"].Observe(out.Verify.Seconds())
	}
	if p.Sensitivity {
		s.stageDuration["sweep"].Observe(out.Sweep.Seconds())
	}
	if sum := out.Verified; sum != nil {
		s.verifications[scout.VerdictConfirmed].Add(uint64(sum.Confirmed))
		s.verifications[scout.VerdictNeutral].Add(uint64(sum.Neutral))
		s.verifications[scout.VerdictRefuted].Add(uint64(sum.Refuted))
	}
}

// countFinish bumps the per-state finished counter and passes the state
// through, so finish call sites stay one-liners.
func (s *Service) countFinish(st State) State {
	if c, ok := s.jobsFinished[st]; ok {
		c.Inc()
	}
	return st
}

// siteResolve covers the whole resolution step (workload name and scale
// check, SASS parse, cubin decode); the nested sites register their own.
// siteAttempt opens every worker attempt, which a local hit never makes.
var siteResolve, siteAttempt = faultinject.Register("service.resolve"), faultinject.Register("service.attempt")

// resolution is a request's plans and report key, or its error.
type resolution struct {
	plans []advisor.Plan
	key   string
	err   error
	took  time.Duration
}

func (s *Service) resolve(req AnalyzeRequest) *resolution {
	t0, r := time.Now(), &resolution{}
	if r.plans, r.err = Resolve(req, s.cfg.SimWorkers); r.err == nil {
		r.key = requestKey(r.plans)
	}
	r.took = time.Since(t0)
	return r
}

// Resolve lowers a request to its analysis targets — one plan, or two
// for arch_compare (base arch first) — under a parse-stage panic guard,
// so a crash on malformed input becomes a typed StageError instead of
// killing the worker. It is the one lowering of a request: the daemon and
// the gpuscout CLI both reach advisor.Run through it. It compiles
// nothing: a workload's name and scale are checked against the registry
// (so they fail here, before any cache tier is probed) and its plan has
// the resolved scale and no kernel — advisor.Run lowers it, on a miss.
// An upload is parsed here, its content being what its report is
// addressed by; it has no launch harness, so its analysis is forced
// static (DryRun). simWorkers applies when the request sets no
// sim_workers of its own.
func Resolve(req AnalyzeRequest, simWorkers int) (plans []advisor.Plan, err error) {
	if req.SimWorkers > 0 {
		simWorkers = req.SimWorkers
	}
	err = scout.Guard(scout.StageParse, siteResolve, func() error {
		if e := faultinject.Hit(siteResolve); e != nil {
			return e
		}
		archNames := []string{req.Arch}
		if req.Arch == "" {
			archNames[0] = defaultArch
		}
		if req.ArchCompare != "" {
			archNames = append(archNames, req.ArchCompare)
		}
		for _, name := range archNames {
			arch, e := gpu.ByName(name)
			if e != nil {
				return e
			}
			p := advisor.Plan{
				Arch: arch,
				Opts: scout.Options{
					DryRun:         req.DryRun || req.Workload == "",
					SamplingPeriod: req.SamplingPeriod,
					StallSlices:    req.StallSlices,
					Sim:            sim.Config{SampleSMs: req.SampleSMs, Workers: simWorkers},
				},
				Workload:    req.Workload,
				Verify:      req.Verify,
				Sensitivity: req.Sensitivity,
			}
			switch {
			case req.Workload != "":
				p.Scale, e = workloads.Scale(req.Workload, req.Scale)
			case req.SASS != "":
				if p.Kernel, e = sass.Parse(req.SASS); e != nil {
					e = fmt.Errorf("parse SASS: %w", e)
				}
			default: // cubin (Validate guarantees exactly one source)
				p.Kernel, e = cubinKernel(req.Cubin, req.Kernel)
			}
			if e != nil {
				return e
			}
			plans = append(plans, p)
		}
		return nil
	})
	return plans, err
}

// cubinKernel decodes an uploaded container and selects the named kernel
// (the first when name is empty).
func cubinKernel(data []byte, name string) (*sass.Kernel, error) {
	bin, err := cubin.Decode(data)
	if err != nil {
		return nil, err
	}
	if len(bin.Kernels) == 0 {
		return nil, fmt.Errorf("cubin holds no kernels")
	}
	if name != "" {
		return bin.Kernel(name)
	}
	return bin.Kernels[0], nil
}
