package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaState is a replica's health as the coordinator sees it.
type ReplicaState int32

const (
	// ReplicaUp: /readyz answered 200 — route traffic here.
	ReplicaUp ReplicaState = iota
	// ReplicaNotReady: the process is alive but refusing traffic
	// (queue saturated, draining) — route around it, but expect it back.
	ReplicaNotReady
	// ReplicaDown: unreachable — failover its keys until it returns.
	ReplicaDown
)

// String names the state ("up", "not_ready", "down").
func (s ReplicaState) String() string {
	switch s {
	case ReplicaUp:
		return "up"
	case ReplicaNotReady:
		return "not_ready"
	default:
		return "down"
	}
}

// replica is one member's live view: URL plus the latest health probe.
type replica struct {
	url        string
	state      atomic.Int32
	queueDepth atomic.Int64
	retryAfter atomic.Int64 // last Retry-After hint observed, seconds

	mu     sync.Mutex
	reason string
}

func (r *replica) setState(s ReplicaState, reason string) {
	r.state.Store(int32(s))
	r.mu.Lock()
	r.reason = reason
	r.mu.Unlock()
}

// Membership tracks the static replica list's up/down state by polling
// each replica's existing /readyz on an interval. The coordinator also
// feeds it synchronously: a proxy attempt that hits a dead connection
// calls MarkDown immediately instead of waiting out the poll interval.
type Membership struct {
	replicas []*replica
	byURL    map[string]*replica
	client   *http.Client
	interval time.Duration

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// ReplicaStatus is one member's state snapshot (for /healthz, /readyz
// and tests).
type ReplicaStatus struct {
	URL        string `json:"url"`
	State      string `json:"state"`
	QueueDepth int64  `json:"queue_depth"`
	Reason     string `json:"reason,omitempty"`
}

func newMembership(urls []string, interval time.Duration, client *http.Client) *Membership {
	m := &Membership{
		byURL:    make(map[string]*replica, len(urls)),
		client:   client,
		interval: interval,
		stop:     make(chan struct{}),
	}
	for _, u := range urls {
		rep := &replica{url: u}
		rep.setState(ReplicaUp, "assumed up until first probe") // optimistic until probed
		m.replicas = append(m.replicas, rep)
		m.byURL[u] = rep
	}
	return m
}

// Start runs one synchronous probe sweep (so routing decisions made
// immediately after Start see real states), then polls in the
// background until Stop.
func (m *Membership) Start() {
	m.PollNow()
	done := make(chan struct{})
	m.done = done
	go func() {
		defer close(done)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.PollNow()
			}
		}
	}()
}

// Stop ends background polling and waits for the poller to exit; on a
// membership that was never started there is nothing to wait for. Call it
// from the goroutine that called Start, or after Start has returned.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	if m.done != nil {
		<-m.done // at most one sweep away: every probe carries a 2 s deadline
	}
}

// PollNow probes every replica once, concurrently, and waits for the
// sweep to finish. Tests use it to force a deterministic state refresh.
func (m *Membership) PollNow() {
	var wg sync.WaitGroup
	for _, rep := range m.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			m.probe(rep)
		}(rep)
	}
	wg.Wait()
}

// probe classifies one replica from its /readyz: 200 = up, 503 = alive
// but not ready (the replica's own saturated/draining signal), any
// transport failure = down.
func (m *Membership) probe(rep *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		rep.setState(ReplicaDown, err.Error())
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		rep.setState(ReplicaDown, err.Error())
		return
	}
	defer resp.Body.Close()
	var body struct {
		Reason     string `json:"reason"`
		QueueDepth int64  `json:"queue_depth"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	rep.queueDepth.Store(body.QueueDepth)
	switch {
	case resp.StatusCode == http.StatusOK:
		rep.setState(ReplicaUp, "")
	case resp.StatusCode == http.StatusServiceUnavailable:
		rep.setState(ReplicaNotReady, body.Reason)
	default:
		rep.setState(ReplicaNotReady, resp.Status)
	}
}

// State returns the replica's current health (ReplicaDown for unknown
// URLs — routing treats them as unusable).
func (m *Membership) State(url string) ReplicaState {
	rep, ok := m.byURL[url]
	if !ok {
		return ReplicaDown
	}
	return ReplicaState(rep.state.Load())
}

// MarkDown records an observed transport failure immediately, without
// waiting for the next poll sweep. The replica comes back via polling.
func (m *Membership) MarkDown(url, reason string) {
	if rep, ok := m.byURL[url]; ok {
		rep.setState(ReplicaDown, reason)
	}
}

// MarkNotReady records a replica's own 503 on a proxied request the same
// way: alive but refusing, until a poll sees it ready again.
func (m *Membership) MarkNotReady(url, reason string) {
	if rep, ok := m.byURL[url]; ok {
		rep.setState(ReplicaNotReady, reason)
	}
}

// NoteRetryAfter records a Retry-After hint a replica attached to its
// own 429, for the coordinator's aggregated backpressure answer.
func (m *Membership) NoteRetryAfter(url string, seconds int) {
	if rep, ok := m.byURL[url]; ok && seconds > 0 {
		rep.retryAfter.Store(int64(seconds))
	}
}

// RetryAfterHint aggregates per-replica hints into the coordinator's
// own Retry-After: the minimum hint among live (non-down) replicas —
// the fleet can accept work as soon as its least-loaded live member can
// — defaulting to 1s when nothing has hinted yet.
func (m *Membership) RetryAfterHint() int {
	best := int64(0)
	for _, rep := range m.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaDown {
			continue
		}
		if h := rep.retryAfter.Load(); h > 0 && (best == 0 || h < best) {
			best = h
		}
	}
	if best == 0 {
		return 1
	}
	return int(best)
}

// UpCount reports how many replicas are currently routable.
func (m *Membership) UpCount() int {
	n := 0
	for _, rep := range m.replicas {
		if ReplicaState(rep.state.Load()) == ReplicaUp {
			n++
		}
	}
	return n
}

// Snapshot returns every replica's current status, in configured order.
func (m *Membership) Snapshot() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(m.replicas))
	for _, rep := range m.replicas {
		rep.mu.Lock()
		reason := rep.reason
		rep.mu.Unlock()
		out = append(out, ReplicaStatus{
			URL:        rep.url,
			State:      ReplicaState(rep.state.Load()).String(),
			QueueDepth: rep.queueDepth.Load(),
			Reason:     reason,
		})
	}
	return out
}
