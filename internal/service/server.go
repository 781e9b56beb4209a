package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"gpuscout/internal/workloads"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/analyze            submit a job; ?async=1 returns 202 + job ID
//	POST   /v1/analyze/batch      many requests at once, deduped by fingerprint
//	GET    /v1/jobs/{id}          job status (+ report JSON when done)
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/workloads          list built-in workload names
//	GET    /internal/v1/cache/{key}  peer cache-fill: raw cached report bytes
//	GET    /healthz               liveness probe (200 + build/mode info)
//	GET    /readyz                readiness probe (503 when saturated or draining)
//	GET    /metrics               Prometheus text-format metrics
//
// Builds tagged `faultinject` additionally expose /debug/faultinject for
// arming chaos faults (absent from production builds).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", s.handleAnalyzeBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/workloads", HandleWorkloads)
	mux.HandleFunc("GET /internal/v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.registerDebugHandlers(mux)
	return mux
}

// WriteJSON answers with an indented JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// encodeStatus is a job status's wire form, as pieces to write in order.
// The envelope is encoded as WriteJSON encodes it; the report member,
// when there is one, is the job's stored bytes themselves — the
// document MarshalJSON produced on a miss, read back from the store or
// accepted from a peer — spliced in after `"report": ` and never
// decoded, compacted or re-indented. Report is Status's last field, so
// the splice lands where the encoder would have put it.
func encodeStatus(st Status) net.Buffers {
	report := st.Report
	st.Report = nil
	env, _ := json.MarshalIndent(st, "", "  ") // no Status field can fail to marshal
	if len(report) == 0 {
		return net.Buffers{env}
	}
	return net.Buffers{env[:len(env)-len("\n}")], reportMember, report, docEnd}
}

var (
	reportMember = []byte(",\n  \"report\": ")
	docEnd       = []byte("\n}")
	newline      = []byte("\n")
)

// writeStatus answers with a job's status document (encodeStatus) and a
// trailing newline, as WriteJSON would.
func writeStatus(w http.ResponseWriter, code int, st Status) {
	body := encodeStatus(st)
	n := len("\n")
	for _, b := range body {
		n += len(b)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(code)
	if _, err := body.WriteTo(w); err == nil {
		_, _ = w.Write(newline)
	}
}

// WriteError answers with the API's error document, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// errTooLarge marks a shape failure that is answered 413 rather than 400.
var errTooLarge = errors.New("request too large")

// requestBody is what the front door admits: an AnalyzeRequest or a
// BatchRequest, each checking its own shape (maxItems bounds a batch).
type requestBody interface{ check(maxItems int) error }

// DecodeRequest is the one front door for analysis requests, shared by
// the worker's and the coordinator's single and batch endpoints: the body
// is bounded to maxBytes, decoded strictly (an unknown field is an
// error, not a silently ignored option) and shape-checked before anyone
// fingerprints, routes or enqueues it. On failure it has answered 413
// (body or batch over its limit) or 400 and reports false. The body is
// one JSON document, streamed into the decoder, never buffered whole.
func DecodeRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, maxItems int, req requestBody) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	if err == nil {
		// One document per body: whatever follows it is refused, not
		// silently dropped.
		if _, err = dec.Token(); err == nil {
			err = errors.New("trailing data after the request document")
		} else if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		err = fmt.Errorf("decode request: %w", err)
	} else {
		err = req.check(maxItems)
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig), errors.Is(err, errTooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
	return false
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !DecodeRequest(w, r, s.cfg.MaxUploadBytes, s.cfg.MaxBatchItems, &req) {
		return
	}

	j, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the bounded queue is at capacity. Tell the client
		// when to come back — estimated from the queue depth and the p75
		// recent job duration — instead of buffering unboundedly.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDurability):
		// ErrDurability: the write-ahead journal could not record the
		// job, so acknowledging it would risk silent loss — the client
		// should retry against a healthy replica.
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrQuarantined):
		// The input's circuit breaker is open: answer immediately with
		// the prior failure instead of occupying a worker. The typed
		// error says when the breaker will admit a probe.
		var qe *QuarantineError
		if errors.As(err, &qe) && qe.RetryAfter > 0 {
			secs := int(qe.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	if async := r.URL.Query().Get("async"); async != "" && async != "0" {
		WriteJSON(w, http.StatusAccepted, map[string]string{
			"job_id":     j.ID,
			"status_url": "/v1/jobs/" + j.ID,
		})
		return
	}

	// Synchronous: wait for the job, but give up (and cancel it) if the
	// client disconnects — nobody is left to read the report.
	select {
	case <-j.Done():
		writeStatus(w, statusCode(j.StateNow()), j.Snapshot())
	case <-r.Context().Done():
		j.Cancel()
	}
}

// statusCode maps a terminal job state to the sync-response HTTP code.
func statusCode(st State) int {
	switch st {
	case StateDone:
		return http.StatusOK
	case StateTimeout:
		return http.StatusGatewayTimeout
	case StateCancelled:
		return http.StatusConflict
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	writeStatus(w, http.StatusOK, j.Snapshot())
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Cancel()
	writeStatus(w, http.StatusOK, j.Snapshot())
}

// HandleWorkloads answers GET /v1/workloads with the built-in workload
// names; a coordinator, the same binary, answers it the same way.
func HandleWorkloads(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]string{"workloads": workloads.Names()})
}

// handleCacheGet is the peer cache-fill endpoint: a replica that misses
// locally asks the ring owner for the raw cached report bytes before it
// re-simulates. 404 means "not here either — simulate". The path is
// namespaced /internal because it exposes cache internals keyed by
// CacheKey, not a public API surface.
func (s *Service) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	// The local half of lookup only: memory, then disk — a replica that
	// restarted since computing the report can still serve its peers from
	// the persistent store — and never onward to another peer.
	data, tier := s.lookupLocal(r.PathValue("key"))
	if tier == "" {
		if s.cfg.Store != nil {
			s.storeMisses.Inc()
		}
		WriteError(w, http.StatusNotFound, "cache miss")
		return
	}
	s.peerServes.Inc()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleHealthz is the liveness probe: 200 as long as the process can
// serve HTTP at all, even while draining. Restart decisions key on
// this; the body carries build and role info so operators and cluster
// membership checks can tell replicas apart.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"version":        Version,
		"go":             runtime.Version(),
		"mode":           s.cfg.Mode,
		"workers":        s.cfg.Workers,
		"queue_depth":    s.pool.depth(),
		"cache_entries":  s.cache.size(),
		"cache_bytes":    s.cache.bytesUsed(),
		"uptime_seconds": s.Uptime().Seconds(),
	}
	if store := s.cfg.Store; store != nil {
		st := store.Stats()
		dd := map[string]any{
			"path":                st.Path,
			"report_entries":      st.ReportEntries,
			"report_bytes":        st.ReportBytes,
			"journal_records":     st.JournalRecords,
			"journal_live_jobs":   st.JournalLiveJobs,
			"journal_lag":         st.JournalLag,
			"journal_bytes":       st.JournalBytes,
			"compactions":         st.Compactions,
			"corrupt_quarantined": st.CorruptQuarantined,
			"evicted":             st.Evicted,
			"recovered_torn":      st.RecoveredTorn,
		}
		if !st.LastCompaction.IsZero() {
			dd["last_compaction"] = st.LastCompaction.UTC().Format(time.RFC3339)
		}
		body["data_dir"] = dd
		body["recovered_jobs"] = s.RecoveredJobs()
	}
	WriteJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness probe: 503 while the queue is saturated
// or shutdown has begun, so load balancers stop routing before requests
// start failing. Routing decisions key on this.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := s.Ready()
	code := http.StatusOK
	status := "ready"
	if !ready {
		code = http.StatusServiceUnavailable
		status = "not ready"
	}
	WriteJSON(w, code, map[string]any{
		"status":      status,
		"reason":      reason,
		"queue_depth": s.pool.depth(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
