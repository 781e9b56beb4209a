package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the analysis.
	StateRunning State = "running"
	// StateDone: finished successfully; the report is available.
	StateDone State = "done"
	// StateFailed: the analysis returned an error.
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client (DELETE or disconnect).
	StateCancelled State = "cancelled"
	// StateTimeout: the per-job deadline expired mid-analysis.
	StateTimeout State = "timeout"
)

const tierMemory, tierDisk, tierPeer, tierSimulated = "memory", "disk", "peer", "simulated" // Status.Tier

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateTimeout:
		return true
	}
	return false
}

// AnalyzeRequest is the body of POST /v1/analyze. Exactly one kernel
// source must be set: Workload (a built-in case-study kernel, run through
// the full three-pillar pipeline), SASS (nvdisasm-style text), or Cubin
// (raw container bytes, base64-encoded in JSON). Uploaded SASS and cubins
// carry no launch harness, so they are analyzed statically (dry run).
type AnalyzeRequest struct {
	// Workload names a built-in workload (see GET /v1/workloads).
	Workload string `json:"workload,omitempty"`
	// Scale is the workload problem scale (0 = the workload's default).
	Scale int `json:"scale,omitempty"`
	// SASS is nvdisasm-style SASS text to analyze statically.
	SASS string `json:"sass,omitempty"`
	// Cubin is a cubin container (base64 in JSON) to analyze statically.
	Cubin []byte `json:"cubin,omitempty"`
	// Kernel selects a kernel within the cubin (default: first).
	Kernel string `json:"kernel,omitempty"`
	// Arch is the target architecture ("sm_70"/"V100", "sm_60", "sm_80");
	// default sm_70.
	Arch string `json:"arch,omitempty"`
	// ArchCompare names a second architecture: the workload is analyzed
	// on both Arch and ArchCompare and the job's report becomes the
	// cross-arch comparison (deltas plus both full reports). Workload
	// analyses only.
	ArchCompare string `json:"arch_compare,omitempty"`
	// DryRun restricts a workload analysis to the static pillar.
	DryRun bool `json:"dry_run,omitempty"`
	// Verify re-executes each recommendation's paired optimized variant
	// and attaches the measured Verification blocks (workload analyses
	// only; incompatible with dry_run).
	Verify bool `json:"verify,omitempty"`
	// Sensitivity re-simulates the workload under the hardware
	// perturbation matrix, attaches dominant-resource sensitivity to the
	// report and findings, and ranks findings by estimated speedup
	// (workload analyses only; incompatible with dry_run).
	Sensitivity bool `json:"sensitivity,omitempty"`
	// StallSlices attaches a backward def-use producer chain to each
	// finding's highest-stall PC (needs the dynamic pillars; ignored on
	// dry runs).
	StallSlices bool `json:"stall_slices,omitempty"`
	// SamplingPeriod overrides the CUPTI sampling period in cycles.
	SamplingPeriod float64 `json:"sampling_period,omitempty"`
	// SampleSMs caps how many SMs the simulator models (0 = default).
	SampleSMs int `json:"sample_sms,omitempty"`
	// SimWorkers sets how many sampled SMs simulate concurrently for
	// this job (0 = the server default, normally 1). Any value yields
	// the same report; higher values shorten one job at the expense of
	// neighbors on a busy daemon.
	SimWorkers int `json:"sim_workers,omitempty"`
	// TimeoutMS bounds this job's execution (0 = the server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Validate checks the request shape without building anything. Every
// entry applies it: the HTTP front door, Submit (library callers skip
// the door), journal recovery and the gpuscout CLI.
func (r *AnalyzeRequest) Validate() error {
	sources := 0
	if r.Workload != "" {
		sources++
	}
	if r.SASS != "" {
		sources++
	}
	if len(r.Cubin) > 0 {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of workload, sass, cubin must be set (got %d)", sources)
	}
	if r.Kernel != "" && len(r.Cubin) == 0 {
		return fmt.Errorf("kernel selects a kernel within a cubin; no cubin given")
	}
	if r.Scale < 0 {
		return fmt.Errorf("scale must be >= 0")
	}
	if r.Verify && r.Workload == "" {
		return fmt.Errorf("verify needs a workload analysis (recommendation pairs are workload-keyed)")
	}
	if r.Verify && r.DryRun {
		return fmt.Errorf("verify needs the dynamic pillars; incompatible with dry_run")
	}
	if r.Sensitivity && r.Workload == "" {
		return fmt.Errorf("sensitivity needs a workload analysis (the sweep rebuilds the kernel per perturbed arch)")
	}
	if r.Sensitivity && r.DryRun {
		return fmt.Errorf("sensitivity needs a baseline measurement; incompatible with dry_run")
	}
	if r.ArchCompare != "" && r.Workload == "" {
		return fmt.Errorf("arch_compare needs a workload analysis (uploaded kernels are already lowered for one arch)")
	}
	if r.SimWorkers < 0 {
		return fmt.Errorf("sim_workers must be >= 0")
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	return nil
}

func (r *AnalyzeRequest) check(int) error { return r.Validate() }

// Job is one queued or executed analysis.
type Job struct {
	// ID is the job's handle, e.g. "j00000007".
	ID string

	req         AnalyzeRequest
	ctx         context.Context
	cancel      context.CancelFunc
	timeout     time.Duration // the deadline pool.submit starts; 0: ctx is final
	done        chan struct{}
	fingerprint string                     // quarantine identity of the input
	journaled   bool                       // an accept record names the job: settle tombstones it
	svc         *Service                   // settles the job (Service.settle); nil in pool tests
	resolved    atomic.Pointer[resolution] // Submit's, taken by the first attempt

	mu           sync.Mutex
	state        State
	report       []byte // marshaled report JSON, set on StateDone
	errMsg       string
	tier         string // who answered: a lookup tier or tierSimulated
	userAbort    bool   // Cancel() was called (vs deadline expiry)
	attempts     int    // execution attempts (>1 after a transient retry)
	degradations int    // ledger entries in the shipped report
	created      time.Time
	started      time.Time
	finished     time.Time
}

func newJob(id string, req AnalyzeRequest, ctx context.Context, cancel context.CancelFunc) *Job {
	return &Job{
		ID:      id,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job. Safe to call in any state, any number of times;
// a finished job is unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.userAbort = true
	}
	j.mu.Unlock()
	j.cancel()
}

func (j *Job) markRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) setAttempts(n int) {
	j.mu.Lock()
	j.attempts = n
	j.mu.Unlock()
}

func (j *Job) setDegradations(n int) {
	j.mu.Lock()
	j.degradations = n
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once, running the
// settle step before Done closes.
func (j *Job) finish(state State, report []byte, errMsg string, tier string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.report = report
	j.errMsg = errMsg
	j.tier = tier
	j.finished = time.Now()
	// Release the upload and its parse: a retained finished job answers
	// Snapshot from the request's names only, and MaxJobsRetained bodies
	// of up to MaxUploadBytes each are heap no byte bound covers.
	// (Journal recovery re-reads the journalled request, not this copy.)
	j.req.SASS, j.req.Cubin = "", nil
	j.resolved.Store(nil)
	j.mu.Unlock()
	j.cancel() // release the timeout timer
	if j.svc != nil {
		j.svc.settle(j, state, errMsg)
	}
	close(j.done)
}

// interrupted maps the job context's termination cause to a terminal
// state: explicit Cancel wins over deadline expiry.
func (j *Job) interrupted() State {
	j.mu.Lock()
	abort := j.userAbort
	j.mu.Unlock()
	if abort {
		return StateCancelled
	}
	if j.ctx.Err() == context.DeadlineExceeded {
		return StateTimeout
	}
	return StateCancelled
}

// Status is the wire form of a job, served by GET /v1/jobs/{id}.
type Status struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Workload string `json:"workload,omitempty"`
	Kernel   string `json:"kernel,omitempty"`
	Arch     string `json:"arch,omitempty"`
	CacheHit bool   `json:"cache_hit"`
	Tier     string `json:"tier,omitempty"` // who answered: memory, disk, peer (a cache hit) or simulated
	Error    string `json:"error,omitempty"`
	// Attempts is set past 1 when transient failures were retried.
	Attempts int `json:"attempts,omitempty"`
	// Degradations counts the report's ledger entries (0 = clean run).
	Degradations int             `json:"degradations,omitempty"`
	CreatedAt    time.Time       `json:"created_at"`
	StartedAt    *time.Time      `json:"started_at,omitempty"`
	FinishedAt   *time.Time      `json:"finished_at,omitempty"`
	Report       json.RawMessage `json:"report,omitempty"`
}

// Snapshot returns the job's current wire form. The Report field aliases
// the immutable cached JSON; callers must not mutate it.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:           j.ID,
		State:        j.state,
		Workload:     j.req.Workload,
		Kernel:       j.req.Kernel,
		Arch:         j.req.Arch,
		CacheHit:     j.tier != "" && j.tier != tierSimulated,
		Tier:         j.tier,
		Error:        j.errMsg,
		Attempts:     j.attempts,
		Degradations: j.degradations,
		CreatedAt:    j.created,
		Report:       j.report,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// StateNow returns the job's current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
