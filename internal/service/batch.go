package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// BatchRequest is the body of POST /v1/analyze/batch: many analysis
// requests in one round trip. Items sharing a fingerprint are folded
// into one job *before* enqueue — N identical cubins cost one
// simulation — and the response streams one Status per item, in request
// order, as results become available.
type BatchRequest struct {
	Requests []AnalyzeRequest `json:"requests"`
}

// BatchResponse is the decoded shape of the batch response stream (the
// handler writes it incrementally; clients that don't care about
// streaming can unmarshal the whole body into this).
type BatchResponse struct {
	Results []Status `json:"results"`
}

// check is the batch's shape rule at the front door: non-empty, at most
// maxItems, and every item valid — a malformed item fails the whole
// batch with its index, before any work is routed or enqueued.
func (b *BatchRequest) check(maxItems int) error {
	n := len(b.Requests)
	if n == 0 {
		return errors.New("batch holds no requests")
	}
	if n > maxItems {
		return fmt.Errorf("batch holds %d requests, limit %d: %w", n, maxItems, errTooLarge)
	}
	for i := range b.Requests {
		if err := b.Requests[i].Validate(); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// Dedupe folds items that share a request identity (Fingerprint) into
// one slot each, in order of first appearance: first[k] is the index of
// the item that introduced slot k, fps[k] its fingerprint, and slot[i]
// the slot item i resolves to. The worker's and the coordinator's batch
// handlers both dedupe through it, so an item is folded away on one
// exactly when it would be on the other.
func (b *BatchRequest) Dedupe() (first []int, fps []string, slot []int) {
	slot = make([]int, len(b.Requests))
	seen := map[string]int{}
	for i := range b.Requests {
		fp := b.Requests[i].Fingerprint()
		k, dup := seen[fp]
		if !dup {
			k = len(first)
			seen[fp] = k
			first, fps = append(first, i), append(fps, fp)
		}
		slot[i] = k
	}
	return first, fps, slot
}

// WriteBatchResults streams a batch response — `{"results":[...]}`, one
// encoded Status per item in request order, flushed per item so clients
// see results as they land. next blocks until item i's status is ready
// (the pieces of one JSON document, written in order) and reports false
// when the client has gone away. The return value is false when the
// stream was cut short (client gone or a failed write).
func WriteBatchResults(w http.ResponseWriter, n int, next func(i int) (net.Buffers, bool)) bool {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sep := `{"results":[`
	for i := 0; i < n; i++ {
		status, ok := next(i)
		if !ok {
			return false
		}
		_, _ = io.WriteString(w, sep) // a dead connection fails the next write too
		if _, err := status.WriteTo(w); err != nil {
			return false
		}
		sep = ","
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, err := w.Write([]byte("]}"))
	return err == nil
}

// batchEnqueueTimeout bounds how long the handler waits for queue
// capacity across a whole batch before failing the remaining items: a
// saturated daemon should degrade a batch into per-item errors, not
// hold the connection open forever.
const batchEnqueueTimeout = 2 * time.Minute

// handleAnalyzeBatch implements POST /v1/analyze/batch. The pipeline-
// relevant property is dedupe-before-enqueue: concurrent identical
// items in one batch would otherwise all miss the cache and each burn a
// worker on the same simulation.
func (s *Service) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !DecodeRequest(w, r, s.cfg.MaxUploadBytes, s.cfg.MaxBatchItems, &batch) {
		return
	}
	n := len(batch.Requests)
	s.batchRequests.Inc()
	s.batchItems.Add(uint64(n))

	// One job per distinct input, shared by every item that carries it.
	type slotJob struct {
		job *Job
		err error
	}
	first, _, slot := batch.Dedupe()
	uniq := make([]slotJob, len(first))
	s.batchDeduped.Add(uint64(n - len(first)))

	// Submit each unique job once, waiting for a queue place: a batch may
	// be larger than the bounded queue — items enter as workers drain it —
	// but a wedged queue fails the remaining items instead of blocking
	// forever, and a client that goes away cancels the batch.
	cancelAll := func() {
		for _, u := range uniq {
			if u.job != nil {
				u.job.Cancel()
			}
		}
	}
	wait, cancel := context.WithTimeout(r.Context(), batchEnqueueTimeout)
	defer cancel()
	for k := range uniq {
		if r.Context().Err() != nil {
			cancelAll()
			return
		}
		u := &uniq[k]
		u.job, u.err = s.submit(batch.Requests[first[k]], "", wait.Done())
		if errors.Is(u.err, ErrQueueFull) {
			u.err = fmt.Errorf("batch enqueue timed out: %w", u.err)
		}
	}

	// Duplicates resolve to the same job, so their Status entries share
	// one report.
	if !WriteBatchResults(w, n, func(i int) (net.Buffers, bool) {
		u := uniq[slot[i]]
		st := Status{State: StateFailed}
		if u.err != nil {
			st.Error = u.err.Error()
		} else {
			select {
			case <-u.job.Done():
				st = u.job.Snapshot()
			case <-r.Context().Done():
				return nil, false
			}
		}
		return encodeStatus(st), true
	}) {
		cancelAll()
	}
}
