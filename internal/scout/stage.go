package scout

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
)

// Pipeline stage names, shared by StageError, Degradation, the deadline
// slices and the service metrics. "parse" covers kernel resolution (SASS
// parse, cubin decode, workload build, KernelView construction); "scout" the
// static detector passes; "sim" the dynamic pillars (simulated launch,
// PC-sampling and metric collection); "verify" the advisor's
// counterfactual re-runs.
const (
	StageParse  = "parse"
	StageScout  = "scout"
	StageSim    = "sim"
	StageVerify = "verify"
)

// StageError is a typed, site-attributed pipeline failure: which stage
// died, at which instrumented site, and whether it was a recovered panic
// (carrying the trimmed stack) or an ordinary error.
type StageError struct {
	// Stage is one of StageParse/StageScout/StageSim/StageVerify.
	Stage string
	// Site names the instrumented location, e.g. "cubin.decode" or a
	// DetectorSite.
	Site string
	// Err is the underlying error (for a panic, a synthesized one).
	Err error
	// PanicValue is non-nil when the error was converted from a panic.
	PanicValue any
	// Stack holds the goroutine stack captured at recover time.
	Stack []byte
}

func (e *StageError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("stage %s: panic at %s: %v", e.Stage, e.Site, e.PanicValue)
	}
	return fmt.Sprintf("stage %s: %s: %v", e.Stage, e.Site, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Transient reports whether retrying the same input might succeed: a
// recovered panic (unless caused by context expiry) or an injected
// fault. Deterministic input errors — malformed SASS, an undecodable
// cubin — are not transient; retrying them only re-burns a worker.
func (e *StageError) Transient() bool {
	if e.Err != nil && (errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded)) {
		return false
	}
	return e.PanicValue != nil || errors.Is(e.Err, faultinject.ErrInjected)
}

// TransientError reports whether err is (or wraps) a transient
// StageError — the pool's retry predicate.
func TransientError(err error) bool {
	var se *StageError
	return errors.As(err, &se) && se.Transient()
}

// newPanicError converts a recovered panic value into a StageError. An
// injected panic names its own site; real panics are attributed to the
// site the guard was protecting.
func newPanicError(stage, site string, r any) *StageError {
	if ip, ok := r.(*faultinject.InjectedPanic); ok {
		site = ip.Site
	}
	return &StageError{
		Stage:      stage,
		Site:       site,
		Err:        fmt.Errorf("panic: %v", r),
		PanicValue: r,
		Stack:      debug.Stack(),
	}
}

// Guard runs fn, converting a panic into a *StageError attributed to
// (stage, site). Non-panic errors returned by fn that are not already
// StageErrors are wrapped so every failure path carries its site.
func Guard(stage, site string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(stage, site, r)
		}
	}()
	if err := fn(); err != nil {
		var se *StageError
		if errors.As(err, &se) {
			return err
		}
		return &StageError{Stage: stage, Site: site, Err: err}
	}
	return nil
}

// Degradation records one thing a report lost on its way out: the stage
// and site that failed, how ("panic", "timeout", "error"), and what the
// loss means for the reader. The ledger is the contract that nothing is
// ever dropped silently — a report either carries the data or an entry
// naming exactly why it does not.
type Degradation struct {
	Stage  string `json:"stage"`
	Site   string `json:"site"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Degradation kinds.
const (
	DegradePanic   = "panic"
	DegradeTimeout = "timeout"
	DegradeError   = "error"
)

// DegradationFor classifies a stage failure into a ledger entry.
// stageCtxExpired tells the classifier the stage's own deadline (not the
// job's) is what expired.
func DegradationFor(stage, site string, err error, stageCtxExpired bool) Degradation {
	d := Degradation{Stage: stage, Site: site, Kind: DegradeError}
	var se *StageError
	if errors.As(err, &se) {
		d.Site = se.Site
		if se.PanicValue != nil {
			d.Kind = DegradePanic
		}
	}
	if d.Kind != DegradePanic && (stageCtxExpired || errors.Is(err, context.DeadlineExceeded)) {
		d.Kind = DegradeTimeout
	}
	d.Detail = err.Error()
	return d
}

// The job deadline splits into per-stage slices, as fixed fractions of
// the total budget (parse 5% / sim 55% / scout 15% / verify 25%). Each
// stage's slice is measured from the moment the stage starts, so time an
// early stage leaves unused rolls forward; the job deadline still caps
// everything. Without a deadline there are no slices.
var stageFraction = map[string]float64{StageParse: 0.05, StageSim: 0.55, StageScout: 0.15, StageVerify: 0.25}

// StageSlice returns the stage's share of the time ctx has left (zero
// for an unknown stage), and whether ctx has a deadline at all.
func StageSlice(ctx context.Context, stage string) (time.Duration, bool) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Duration(stageFraction[stage] * float64(time.Until(deadline))), true
}

// The stages a context's clock times, declared once: TimedStages lists
// them, and they label the daemon's gpuscoutd_stage_seconds.
const TimeBuild, TimeAnalyze, TimeVerify, TimeSweep, TimeEncode = "build", "analyze", "verify", "sweep", "encode"

var TimedStages = []string{TimeBuild, TimeAnalyze, TimeVerify, TimeSweep, TimeEncode}

type clockKey struct{}

// WithClock attaches a stage clock to ctx: Time on ctx, or on a context
// derived from it, reports each stage's wall time to observe.
func WithClock(ctx context.Context, observe func(stage string, took time.Duration)) context.Context {
	return context.WithValue(ctx, clockKey{}, observe)
}

// Time times one run of stage; end reports it to ctx's clock. Without a
// clock it does nothing.
func Time(ctx context.Context, stage string) (end func()) {
	if observe, ok := ctx.Value(clockKey{}).(func(string, time.Duration)); ok {
		t := time.Now()
		return func() { observe(stage, time.Since(t)) }
	}
	return func() {}
}

// Fault-injection sites owned by the scout pipeline. The per-detector
// sites are registered in the init below (they derive from the detector
// set).
var (
	siteParse     = faultinject.Register("scout.parse")
	siteCorrelate = faultinject.Register("scout.correlate")
	siteSlice     = faultinject.Register("scout.slice")
)

// DetectorSite names the fault-injection site of one detector.
func DetectorSite(name string) string { return "scout.detector." + name }

// detectors finds a detector's description by the name its findings
// carry (Finding.Analysis); none of it depends on the architecture.
var detectors = map[string]Description{}

func init() {
	for _, a := range AllAnalysesFor(gpu.V100()) {
		faultinject.Register(DetectorSite(a.Name()))
		detectors[a.Name()] = a.Describe()
	}
}
