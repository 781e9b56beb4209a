package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"gpuscout/internal/advisor"
	"gpuscout/internal/cubin"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// execute runs one job on a worker goroutine, retrying transient stage
// failures (recovered panics, injected faults) with capped exponential
// backoff + jitter. Every way out is a Job.finish, whose settle step
// counts the job and gives the quarantine breaker its verdict.
func (s *Service) execute(j *Job) {
	// abort ends a job whose context expired or was cancelled.
	abort := func(msg string) { j.finish(j.interrupted(), nil, msg, "") }
	if err := j.ctx.Err(); err != nil {
		abort("aborted before start: " + err.Error())
		return
	}
	j.markRunning()
	s.jobsInflight.Add(1)
	defer s.jobsInflight.Add(-1)
	defer func() { st := j.Snapshot(); s.durations.record(st.FinishedAt.Sub(*st.StartedAt)) }() // every way out finishes j

	var lastErr error
	for attempt := 1; ; attempt++ {
		j.setAttempts(attempt)
		if lastErr = s.executeAttempt(j); lastErr == nil {
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
	j.finish(StateFailed, nil, lastErr.Error(), "")
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
	if res == nil {             // a retry
		res = s.resolve(j.ctx, j.req)
	}
	if res.err != nil {
		return res.err
	}

	// The pipeline is not entered on a hit.
	plans, key := res.plans, res.key
	if data, tier := s.lookup(j.ctx, j.fingerprint, key); tier != "" {
		j.finish(StateDone, data, "", tier)
		return nil
	}

	// Stage budgets are applied inside the pipeline: a slow or crashing
	// dynamic pillar, verification or sweep comes back as a degraded
	// report with ledger entries, not as an error.
	reps := make([]*scout.Report, len(plans))
	var ledger []scout.Degradation
	for i, p := range plans {
		out, err := advisor.Run(j.ctx, p)
		s.observeOutcome(out)
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
			if c, ok := s.degraded[kind]; ok {
				c.Inc()
			}
		}
		j.setDegradations(len(ledger))
	}

	// Encode once; publish the immutable bytes — but never a degraded
	// report, so a later identical request gets a chance at the full
	// result.
	end := scout.Time(j.ctx, scout.TimeEncode)
	data, err := doc.MarshalJSON()
	end()
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
	j.finish(StateDone, data, "", tierSimulated)
	return nil
}

// observeOutcome feeds one pipeline run into the simulator histograms
// and the verdict counters.
func (s *Service) observeOutcome(out *advisor.Outcome) {
	if rep := out.Report; rep != nil && rep.Result != nil {
		s.simWall.Observe(rep.Result.Host.WallSeconds)
		s.simSpeedup.Observe(rep.Result.Host.Speedup())
	}
	if sum := out.Verified; sum != nil {
		s.verifications[string(scout.VerdictConfirmed)].Add(uint64(sum.Confirmed))
		s.verifications[string(scout.VerdictNeutral)].Add(uint64(sum.Neutral))
		s.verifications[string(scout.VerdictRefuted)].Add(uint64(sum.Refuted))
	}
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
}

func (s *Service) resolve(ctx context.Context, req AnalyzeRequest) *resolution {
	defer scout.Time(ctx, scout.TimeBuild)()
	r := &resolution{}
	if r.plans, r.err = Resolve(req, s.cfg.SimWorkers); r.err == nil {
		r.key = requestKey(r.plans)
	}
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
