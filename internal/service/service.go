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

	"gpuscout/internal/scout"
	"gpuscout/internal/store"
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
	// acknowledged (and resubmitted after a restart), clean reports are
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
	clock      context.Context // every job context's parent: the stage clock
	draining   atomic.Bool     // readiness flipped off before shutdown
	recovering atomic.Bool     // journal replay resubmitting jobs; /readyz 503

	idMu              sync.Mutex
	nextID, idCeiling uint64 // last handle issued, highest the journal reserved

	jobsMu sync.Mutex
	jobs   map[string]*Job
	order  []string // creation order, for pruning finished jobs

	// Metrics (the observability surface of the request path).
	jobsInflight  atomic.Int64
	jobsFinished  map[string]*Counter // by State
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
	verifications map[string]*Counter // by scout.Verdict
	stagePanics   map[string]*Counter // by scout stage
	degraded      map[string]*Counter // by a ledger entry's "<stage>_<kind>"
	retries       *Counter
	quarantined   *Counter
	storeHits     *Counter
	storeMisses   *Counter
	recoveredJobs *Counter
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
	table := []Instrument{
		{"gpuscoutd_queue_depth", "Jobs accepted and waiting for a worker.", nil, func() float64 { return float64(s.pool.depth()) }},
		{"gpuscoutd_cache_hits_total", "Analyses served from the content-addressed report cache.", &s.cacheHits, nil},
		{"gpuscoutd_cache_misses_total", "Analyses that had to run the pipeline.", &s.cacheMisses, nil},
		{"gpuscoutd_cache_entries", "Reports currently cached.", nil, func() float64 { return float64(s.cache.size()) }},
		{"gpuscoutd_cache_bytes", "Total payload bytes held by the in-memory report cache.", nil, func() float64 { return float64(s.cache.bytesUsed()) }},
		{"gpuscoutd_store_hits_total", "Memory-cache misses served whole from the persistent report store (warm restarts, rebalanced keys).", &s.storeHits, nil},
		{"gpuscoutd_store_misses_total", "Memory-cache misses that also missed the persistent report store.", &s.storeMisses, nil},
		{"gpuscoutd_recovered_jobs_total", "Journaled jobs resubmitted by startup recovery under their original IDs, answered at admission from a stored report or re-enqueued.", &s.recoveredJobs, nil},
		{"gpuscoutd_peer_fill_hits_total", "Local cache misses served by a peer replica's cache (two-tier fill).", &s.peerFillHits, nil},
		{"gpuscoutd_peer_fill_misses_total", "Peer cache-fill attempts that fell through to local simulation.", &s.peerFillMiss, nil},
		{"gpuscoutd_peer_cache_serves_total", "Cache entries served to peer replicas via /internal/v1/cache.", &s.peerServes, nil},
		{"gpuscoutd_batch_requests_total", "POST /v1/analyze/batch requests accepted.", &s.batchRequests, nil},
		{"gpuscoutd_batch_items_total", "Analysis requests carried inside batch bodies.", &s.batchItems, nil},
		{"gpuscoutd_batch_deduped_total", "Batch items that shared a fingerprint with an earlier item in the same batch and were folded into its job before enqueue.", &s.batchDeduped, nil},
		{"gpuscoutd_sim_workers_default", "Per-launch simulation parallelism applied to jobs that don't set sim_workers.", nil, func() float64 { return float64(s.cfg.SimWorkers) }},
		{"gpuscoutd_retries_total", "Job attempts retried after a transient stage failure.", &s.retries, nil},
		{"gpuscoutd_quarantined_total", "Submissions rejected because the input fingerprint is quarantined.", &s.quarantined, nil},
		{"gpuscoutd_quarantine_open", "Input fingerprints currently held by the circuit breaker.", nil, func() float64 { return float64(s.breaker.openCount()) }},
	}
	if st := cfg.Store; st != nil {
		table = append(table,
			Instrument{"gpuscoutd_store_report_bytes", "Bytes held by the persistent report store.", nil, func() float64 { return float64(st.Stats().ReportBytes) }},
			Instrument{"gpuscoutd_store_report_entries", "Reports held by the persistent report store.", nil, func() float64 { return float64(st.Stats().ReportEntries) }},
			Instrument{"gpuscoutd_store_journal_records", "Frames in the write-ahead job journal.", nil, func() float64 { return float64(st.Stats().JournalRecords) }},
			Instrument{"gpuscoutd_store_journal_lag", "Journal records beyond the live job set — the garbage the next compaction reclaims.", nil, func() float64 { return float64(st.Stats().JournalLag) }},
			Instrument{"gpuscoutd_store_corrupt_quarantined", "Report entries quarantined to corrupt/ since the store opened.", nil, func() float64 { return float64(st.Stats().CorruptQuarantined) }})
	}
	r.Register(table...)
	RegisterRuntimeGauges(r)
	r.NewGaugeFunc("gpuscoutd_jobs_inflight", "Jobs currently executing on the worker pool.",
		func() float64 { return float64(s.jobsInflight.Load()) })
	s.jobsFinished = r.NewCounterVec("gpuscoutd_jobs_finished_total",
		"Jobs finished, by terminal state.", "state",
		string(StateDone), string(StateFailed), string(StateCancelled), string(StateTimeout))
	s.verifications = r.NewCounterVec("gpuscoutd_verifications_total",
		"Counterfactually verified recommendations, by measured verdict.", "verdict",
		string(scout.VerdictConfirmed), string(scout.VerdictNeutral), string(scout.VerdictRefuted))
	s.stagePanics = r.NewCounterVec("gpuscoutd_stage_panics_total",
		"Panics recovered inside the pipeline, by stage.", "stage",
		scout.StageParse, scout.StageScout, scout.StageSim, scout.StageVerify)
	// A ledger entry names a stage that degrades rather than fails (a parse
	// failure is fatal) and a kind DegradationFor classifies, so these
	// series are every stage_kind a shipped report can carry.
	var kinds []string
	for _, stage := range []string{scout.StageSim, scout.StageScout, scout.StageVerify} {
		for _, kind := range []string{scout.DegradeTimeout, scout.DegradePanic, scout.DegradeError} {
			kinds = append(kinds, stage+"_"+kind)
		}
	}
	s.degraded = r.NewCounterVec("gpuscoutd_degraded_reports_total",
		"Reports shipped with a degradation ledger, by stage_kind.", "kind", kinds...)
	s.stageDuration = map[string]*Histogram{}
	for _, stage := range scout.TimedStages {
		s.stageDuration[stage] = r.NewHistogram("gpuscoutd_stage_seconds",
			"Per-stage job latency: build (request resolution plus, on a miss, lowering), analyze (pipeline), verify (counterfactual re-runs), sweep (perturbation re-simulation), encode (report JSON).",
			nil, Label{"stage", stage})
	}
	s.simWall = r.NewHistogram("gpuscoutd_sim_wall_seconds",
		"Host wall time of each simulated launch's SM phase.", nil)
	s.simSpeedup = r.NewHistogram("gpuscoutd_sim_speedup",
		"Achieved parallel speedup per simulated launch (aggregate per-SM time over wall time).",
		[]float64{1, 1.25, 1.5, 2, 3, 4, 6, 8, 12, 16})
	s.clock = scout.WithClock(context.Background(), func(stage string, took time.Duration) {
		s.stageDuration[stage].Observe(took.Seconds())
	})
	// Startup recovery: resubmit every journaled job that never reached
	// a tombstone. /readyz stays 503 until the replay has drained into
	// the queue; a job whose report already landed on disk is answered
	// at admission instead of re-simulating.
	if len(pendingJobs) > 0 {
		s.recovering.Store(true)
		go s.recoverJobs(pendingJobs)
	}
	return s, nil
}

// recoverJobs resubmits the journal's pending jobs through submit under
// their original IDs (clients may still hold the handles), so each is
// re-validated, checked against the reloaded breaker and answered at
// admission when its report is stored, like any request; a miss waits
// for a queue place. A refused job is tombstoned; shutdown or a dead
// store leaves the rest of the journal for the next start.
func (s *Service) recoverJobs(pending []store.PendingJob) {
	defer s.recovering.Store(false)
	never := make(chan struct{}) // a recovered job waits for a place until shutdown
	for _, p := range pending {
		var req AnalyzeRequest
		err := json.Unmarshal(p.Req, &req)
		if err == nil {
			_, err = s.submit(req, p.ID, never)
		}
		switch {
		case err == nil:
			s.recoveredJobs.Inc()
		case errors.Is(err, ErrClosed), errors.Is(err, ErrDurability):
			return
		case errors.Is(err, ErrQuarantined):
			s.cfg.Store.AppendTombstone(p.ID, string(StateCancelled))
		default: // not a valid request
			s.cfg.Store.AppendTombstone(p.ID, string(StateFailed))
		}
	}
}

// RecoveredJobs reports how many journaled jobs startup recovery has
// resubmitted (surfaced by /healthz).
func (s *Service) RecoveredJobs() uint64 { return s.recoveredJobs.Value() }

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// Close stops accepting jobs, cancels everything queued or running, and
// waits for the workers to drain. Readiness flips off first so a load
// balancer stops routing before the queue starts rejecting.
func (s *Service) Close() {
	s.BeginShutdown()
	s.pool.beginShutdown() // wake waiting submissions first: one enqueued after the loop would run uncancelled
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

// admit creates the job for a request — with its own timeout, which the
// pool starts once the job holds a queue place (pool.submit), carrying
// its quarantine identity, the service's settle step and, on its
// context, the service's stage clock. Every job is built here, a hit
// answered at submit included.
func (s *Service) admit(id string, req AnalyzeRequest, fp string) *Job {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	j := newJob(id, req, s.clock, func() {}) // no deadline until the pool arms it
	j.timeout = timeout
	j.fingerprint = fp
	j.svc = s
	return j
}

// settle is every terminal side effect of a job, run by Job.finish before
// Done closes, so whoever sees the job finished sees them too: the
// finished counter, the breaker's verdict (saved when it changed the
// breaker) and, for a journaled job, the tombstone. A lost tombstone
// only costs a re-run after a crash that converges via the report store.
func (s *Service) settle(j *Job, state State, errMsg string) {
	s.jobsFinished[string(state)].Inc()
	persist := false
	switch state {
	case StateDone:
		persist = s.breaker.recordSuccess(j.fingerprint)
	case StateFailed:
		s.breaker.recordFailure(j.fingerprint, errMsg)
		persist = true
	default: // interrupted: free a half-open probe slot without a verdict
		s.breaker.release(j.fingerprint)
	}
	if st := s.cfg.Store; st != nil && persist { // hardening: a failed save is swallowed
		_ = st.SaveBreaker(s.breaker.exportJSON())
	}
	if j.journaled {
		s.cfg.Store.AppendTombstone(j.ID, string(state))
	}
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
func (s *Service) Submit(req AnalyzeRequest) (*Job, error) { return s.submit(req, "", nil) }

// submit is the one admission, of a new request and of a journaled one
// alike. A miss waits for a queue place until wait closes (see
// pool.submit); a nil wait fails fast. An empty id issues a new handle
// and journals the accept; a journaled id (startup recovery) keeps its
// handle and accept record, and its shed leaves it in the journal.
func (s *Service) submit(req AnalyzeRequest, id string, wait <-chan struct{}) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	fp := req.Fingerprint()
	probe, err := s.breaker.check(fp)
	if err != nil {
		s.quarantined.Inc()
		return nil, err
	}
	fresh, accepted := id == "", false
	// refuse is every refusal past the breaker: it frees the probe this
	// call was admitted as, and tombstones the accept it journaled so a
	// restart does not resurrect the job (a lost tombstone costs a re-run).
	refuse := func(err error) (*Job, error) {
		if probe {
			s.breaker.release(fp)
		}
		if accepted {
			s.cfg.Store.AppendTombstone(id, string(StateCancelled))
		}
		return nil, err
	}
	if s.pool.closed.Load() {
		return refuse(ErrClosed)
	}
	st := s.cfg.Store
	if st != nil && st.Stats().Dead {
		return refuse(fmt.Errorf("%w: %v", ErrDurability, store.ErrDead))
	}
	if fresh {
		if id, err = s.newID(); err != nil {
			return refuse(err)
		}
	}
	j := s.admit(id, req, fp)
	j.journaled = !fresh
	// The worker's first step: a miss hands it (or its error) to attempt 1.
	res := s.resolve(j.ctx, req)
	if res.err == nil {
		if data, tier := s.lookupLocal(res.key); tier != "" {
			if tier == tierMemory {
				s.cacheHits.Inc()
			}
			j.started, j.attempts = j.created, 1
			j.finish(StateDone, data, "", tier)
			s.register(j)
			return j, nil
		}
	}
	j.resolved.Store(res)

	// Write-ahead: the accept record must be on disk before the client
	// hears the job ID. A journal that cannot take the record means the
	// acknowledgement would be a lie — refuse the job instead.
	if st != nil && fresh {
		reqJSON, err := json.Marshal(req)
		if err == nil {
			err = st.AppendAccept(id, fp, reqJSON)
		}
		if err != nil {
			return refuse(fmt.Errorf("%w: %v", ErrDurability, err))
		}
		j.journaled, accepted = true, true
	}

	if err := s.pool.submit(j, wait); err != nil {
		return refuse(err)
	}
	s.register(j)
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
// finished and one registration evicts exactly that entry, and a live
// entry is only stepped over, so the walk is bounded by the jobs in
// flight. An eviction moves the i live ids ahead of it up one slot and
// drops the head, so it costs the jobs stepped over, not the jobs retained.
func (s *Service) pruneLocked() {
	for i := 0; len(s.jobs) > s.cfg.MaxJobsRetained && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].StateNow().Terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		copy(s.order[1:i+1], s.order[:i])
		s.order = s.order[1:]
	}
}
