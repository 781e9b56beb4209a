package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/service"
)

// siteBatch gates each sub-batch send: an armed error models a replica
// dying with part of a batch — the coordinator must re-route the
// stranded items to another replica (which simulates them locally), not
// fail the batch.
var siteBatch = faultinject.Register("cluster.batch")

// batchSlot is one distinct fingerprint's pending result: its Status
// body, in pieces (withReplica). done closes exactly once, after status
// is set.
type batchSlot struct {
	req    service.AnalyzeRequest
	fp     string
	status net.Buffers
	done   chan struct{}
}

func (s *batchSlot) deliver(status ...[]byte) {
	s.status = status
	close(s.done)
}

func failStatus(msg string) []byte {
	b, _ := json.Marshal(service.Status{State: service.StateFailed, Error: msg})
	return b
}

// handleBatch implements the coordinator's POST /v1/analyze/batch:
// dedupe by fingerprint, group the distinct inputs by ring owner, send
// one sub-batch per owner concurrently, and stream the per-item results
// back in request order as they arrive. A sub-batch that dies partway
// gets its undelivered items re-routed once to the next usable replica.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch service.BatchRequest
	if !service.DecodeRequest(w, r, c.cfg.MaxUploadBytes, c.cfg.MaxBatchItems, &batch) {
		return
	}
	n := len(batch.Requests)
	c.batchRequests.Inc()
	c.batchItems.Add(uint64(n))

	// Dedupe across the whole batch before any fan-out.
	first, fps, slot := batch.Dedupe()
	uniq := make([]*batchSlot, len(first))
	for k, i := range first {
		uniq[k] = &batchSlot{req: batch.Requests[i], fp: fps[k], done: make(chan struct{})}
	}
	c.batchDeduped.Add(uint64(n - len(first)))

	go c.fanOut(r.Context(), uniq)

	// Stream results in request order; duplicates share their slot.
	service.WriteBatchResults(w, n, func(i int) (net.Buffers, bool) {
		s := uniq[slot[i]]
		select {
		case <-s.done:
			return append(net.Buffers(nil), s.status...), true // writing consumes the pieces: a duplicate gets its own
		case <-r.Context().Done():
			return nil, false
		}
	})
}

// fanOut runs up to two routing rounds over the undelivered slots: the
// first groups by ring owner (cache affinity), the second re-routes
// anything stranded by a dead or partially-failed replica. Slots still
// undelivered after both rounds fail individually.
func (c *Coordinator) fanOut(ctx context.Context, uniq []*batchSlot) {
	pending := uniq
	for round := 0; round < 2 && len(pending) > 0; round++ {
		if round > 0 {
			c.batchReroutes.Add(uint64(len(pending)))
		}
		groups := map[string][]*batchSlot{}
		var unroutable []*batchSlot
		for _, s := range pending {
			owner := c.pickOwner(s.fp)
			if owner == "" {
				unroutable = append(unroutable, s)
				continue
			}
			groups[owner] = append(groups[owner], s)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var failed []*batchSlot
		for owner, slots := range groups {
			wg.Add(1)
			go func(owner string, slots []*batchSlot) {
				defer wg.Done()
				stranded := c.sendSubBatch(ctx, owner, slots)
				if len(stranded) > 0 {
					mu.Lock()
					failed = append(failed, stranded...)
					mu.Unlock()
				}
			}(owner, slots)
		}
		wg.Wait()
		pending = append(failed, unroutable...)
	}
	for _, s := range pending {
		s.deliver(failStatus("cluster: no replica could run this request"))
	}
}

// pickOwner returns fp's first routable replica in ring preference
// order, "" when the whole chain is down or drained.
func (c *Coordinator) pickOwner(fp string) string {
	for _, url := range c.ring.Owners(fp, len(c.cfg.Replicas)) {
		if c.members.State(url) == ReplicaUp {
			return url
		}
	}
	return ""
}

// sendSubBatch posts one owner's slots as a worker-side batch and
// stream-decodes the results array, delivering each slot as its entry
// arrives (the worker dedupes again internally, and its queue-full
// waiting keeps over-large sub-batches trickling in). It returns the
// slots left undelivered by a transport failure or a response that died
// partway — the caller re-routes those.
func (c *Coordinator) sendSubBatch(ctx context.Context, owner string, slots []*batchSlot) []*batchSlot {
	if err := faultinject.Hit(siteBatch); err != nil {
		c.members.MarkDown(owner, err.Error())
		c.failovers.Inc()
		return slots
	}
	reqs := make([]service.AnalyzeRequest, len(slots))
	for i, s := range slots {
		reqs[i] = s.req
	}
	body, err := json.Marshal(service.BatchRequest{Requests: reqs})
	if err != nil {
		for _, s := range slots {
			s.deliver(failStatus("encode sub-batch: " + err.Error()))
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/analyze/batch", bytes.NewReader(body))
	if err != nil {
		return slots
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		c.members.MarkDown(owner, err.Error())
		c.failovers.Inc()
		return slots
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The whole sub-batch was refused (saturated, draining, bad
		// request): try it elsewhere.
		c.failovers.Inc()
		return slots
	}
	c.proxied[owner].Inc()

	// Stream-decode `{"results":[ ... ]}`, delivering slot i as the
	// i-th element arrives — the worker emits them in sub-batch order.
	dec := json.NewDecoder(resp.Body)
	if !expectBatchHeader(dec) {
		c.members.MarkDown(owner, "malformed batch response")
		return slots
	}
	for i, s := range slots {
		if !dec.More() {
			return slots[i:]
		}
		var st json.RawMessage
		if err := dec.Decode(&st); err != nil {
			// Died mid-array: everything from here on is stranded.
			c.members.MarkDown(owner, "batch response truncated: "+err.Error())
			return slots[i:]
		}
		s.deliver(withReplica(st, c.repIndex[owner])...)
	}
	return nil
}

// expectBatchHeader consumes the `{"results":[` prefix tokens.
func expectBatchHeader(dec *json.Decoder) bool {
	t, err := dec.Token()
	if err != nil || t != json.Delim('{') {
		return false
	}
	t, err = dec.Token()
	if err != nil || t != "results" {
		return false
	}
	t, err = dec.Token()
	return err == nil && t == json.Delim('[')
}
