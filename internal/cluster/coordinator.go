package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/service"
)

// siteProxy gates each single-request proxy attempt: an armed error
// models the owner dying between the health poll and the proxy — the
// coordinator must fail over to the next ring owner, which simulates
// locally, instead of failing the request.
var siteProxy = faultinject.Register("cluster.proxy")

// Config tunes the coordinator. Replicas is the only required field.
type Config struct {
	// Replicas is the static member list: every worker's base URL
	// (e.g. "http://10.0.0.1:8090"). The ring is built over exactly this
	// list; health checks decide which members are routable.
	Replicas []string
	// HealthInterval is the /readyz poll period (default 2s).
	HealthInterval time.Duration
	// ProxyTimeout bounds one proxied attempt, response body included.
	// Sync analyses can legitimately run for minutes (default 5m).
	ProxyTimeout time.Duration
	// MaxUploadBytes caps request bodies, mirroring the worker's own
	// limit (default 8 MiB).
	MaxUploadBytes int64
	// MaxBatchItems caps POST /v1/analyze/batch (default 4096).
	MaxBatchItems int
	// Client overrides the proxy HTTP client (tests).
	Client *http.Client
}

func (c *Config) applyDefaults() error {
	if len(c.Replicas) == 0 {
		return fmt.Errorf("cluster: no replicas configured")
	}
	// Normalised into a copy: the caller's slice is not ours to edit.
	replicas := make([]string, len(c.Replicas))
	seen := map[string]bool{}
	for i, r := range c.Replicas {
		replicas[i] = strings.TrimRight(r, "/")
		if replicas[i] == "" || seen[replicas[i]] {
			return fmt.Errorf("cluster: replica list has an empty or duplicate entry: %q", r)
		}
		seen[replicas[i]] = true
	}
	c.Replicas = replicas
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 5 * time.Minute
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 8 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 4096
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return nil
}

// Coordinator fronts a fleet of gpuscoutd workers: it computes each
// request's input fingerprint, routes it to the ring owner so repeated
// fingerprints always land on the same worker's cache, fails over along
// the ring's preference chain when the owner is down or drained, and
// aggregates the fleet's backpressure into its own 429s.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	members  *Membership
	client   *http.Client
	reg      *service.Registry
	start    time.Time
	draining atomic.Bool
	repIndex map[string]int // replica URL -> position in cfg.Replicas
	maxReply int64          // bound on one buffered replica answer (tests lower it)

	proxied        map[string]*service.Counter
	failovers      *service.Counter
	affinityBreaks *service.Counter
	shed           *service.Counter
	batchRequests  *service.Counter
	batchItems     *service.Counter
	batchDeduped   *service.Counter
	batchReroutes  *service.Counter
}

// New builds a coordinator over the configured replicas. Call Start to
// begin health polling (it runs one synchronous sweep first), then
// serve Handler().
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:      cfg,
		ring:     NewRing(cfg.Replicas),
		members:  newMembership(cfg.Replicas, cfg.HealthInterval, cfg.Client),
		client:   cfg.Client,
		reg:      service.NewRegistry(),
		start:    time.Now(),
		repIndex: map[string]int{},
		maxReply: 64 << 20,
	}
	for i, r := range cfg.Replicas {
		c.repIndex[r] = i
	}
	reg := c.reg
	reg.Register([]service.Instrument{
		{Name: "gpuscoutd_cluster_replicas", Help: "Replicas in the configured member list.", Read: func() float64 { return float64(len(c.cfg.Replicas)) }},
		{Name: "gpuscoutd_cluster_replicas_up", Help: "Replicas currently routable (last /readyz probe answered 200).", Read: func() float64 { return float64(c.members.UpCount()) }},
		{Name: "gpuscoutd_cluster_failovers_total", Help: "Proxy attempts abandoned for a dead or refusing replica and retried on the next ring owner.", Counter: &c.failovers},
		{Name: "gpuscoutd_cluster_affinity_breaks_total", Help: "Requests served by a replica other than their first-preference ring owner.", Counter: &c.affinityBreaks},
		{Name: "gpuscoutd_cluster_shed_total", Help: "Requests the coordinator answered 429/503 itself because no replica could take them.", Counter: &c.shed},
		{Name: "gpuscoutd_cluster_batch_requests_total", Help: "POST /v1/analyze/batch requests accepted by the coordinator.", Counter: &c.batchRequests},
		{Name: "gpuscoutd_cluster_batch_items_total", Help: "Analysis requests carried inside coordinator batch bodies.", Counter: &c.batchItems},
		{Name: "gpuscoutd_cluster_batch_deduped_total", Help: "Batch items folded into an earlier item's slot before fan-out (shared fingerprint).", Counter: &c.batchDeduped},
		{Name: "gpuscoutd_cluster_batch_reroutes_total", Help: "Batch items re-sent to another replica after a partial sub-batch failure.", Counter: &c.batchReroutes},
	}...)
	c.proxied = reg.NewCounterVec("gpuscoutd_cluster_proxied_total",
		"Requests proxied to each replica.", "replica", cfg.Replicas...)
	service.RegisterRuntimeGauges(reg)
	return c, nil
}

// Start begins membership health polling.
func (c *Coordinator) Start() { c.members.Start() }

// BeginShutdown flips /readyz to 503 without stopping proxying — same
// contract as the worker's BeginShutdown.
func (c *Coordinator) BeginShutdown() { c.draining.Store(true) }

// Close stops health polling and drops idle upstream connections.
func (c *Coordinator) Close() {
	c.members.Stop()
	c.client.CloseIdleConnections()
}

// Ring exposes the routing ring (tests assert ownership against it).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Membership exposes the live member view (tests and operators).
func (c *Coordinator) Membership() *Membership { return c.members }

// Handler returns the coordinator's HTTP API — the same public surface
// as a worker, so clients need not know whether they talk to one
// replica or a fleet:
//
//	POST   /v1/analyze        route by fingerprint to the ring owner
//	POST   /v1/analyze/batch  dedupe, fan out per owner, stream in order
//	GET    /v1/jobs/{id}      ids are "r<replica>-<job>" — proxied home
//	DELETE /v1/jobs/{id}      likewise
//	GET    /v1/workloads      proxied to any up replica
//	GET    /healthz           coordinator liveness + per-replica states
//	GET    /readyz            200 while >=1 replica is up ("degraded" when not all)
//	GET    /metrics           coordinator routing metrics
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", c.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", c.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/workloads", c.handleWorkloads)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// handleAnalyze routes one analysis to its fingerprint's ring owner. The
// request comes through the same front door as on a worker, so a
// malformed one is answered here instead of being routed and proxied;
// the tee keeps the bytes the door consumed for forwarding.
func (c *Coordinator) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var raw bytes.Buffer
	r.Body = io.NopCloser(io.TeeReader(r.Body, &raw))
	var req service.AnalyzeRequest
	if !service.DecodeRequest(w, r, c.cfg.MaxUploadBytes, c.cfg.MaxBatchItems, &req) {
		return
	}
	c.routeByKey(w, r, req.Fingerprint(), http.MethodPost, r.URL.RequestURI(), raw.Bytes())
}

// routeByKey walks fp's ring preference chain, proxying to the first
// usable replica and failing over past dead or refusing ones. It writes
// the response (or the coordinator's own backpressure answer).
func (c *Coordinator) routeByKey(w http.ResponseWriter, r *http.Request, fp, method, pathq string, body []byte) {
	cands := c.ring.Owners(fp, len(c.cfg.Replicas))
	sawNotReady := false
	for i, url := range cands {
		switch c.members.State(url) {
		case ReplicaNotReady:
			sawNotReady = true
			continue
		case ReplicaDown:
			continue
		}
		resp, data, err := c.forward(r.Context(), url, method, pathq, body)
		if err != nil {
			// Dead between polls: record it now, fail over along the
			// ring — the next owner simulates (or peer-fills) the key.
			c.members.MarkDown(url, err.Error())
			c.failovers.Inc()
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// The replica itself is refusing (draining): treat like the
			// poll had already said not-ready and keep walking.
			c.members.MarkNotReady(url, "503 from proxy")
			c.failovers.Inc()
			sawNotReady = true
			continue
		}
		if i > 0 {
			c.affinityBreaks.Inc()
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				c.members.NoteRetryAfter(url, s)
			}
		}
		c.proxied[url].Inc()
		c.relay(w, url, resp, data)
		return
	}
	// Nobody took it. Saturated-but-alive replicas mean "come back";
	// a fully dead fleet means 503.
	c.shed.Inc()
	if sawNotReady {
		w.Header().Set("Retry-After", strconv.Itoa(c.members.RetryAfterHint()))
		service.WriteError(w, http.StatusTooManyRequests,
			"cluster: all replicas for this key are saturated or draining")
		return
	}
	service.WriteError(w, http.StatusServiceUnavailable, "cluster: no replica available")
}

// forward performs one buffered proxy attempt. Buffering the whole
// response before relaying is what makes failover safe: a replica dying
// mid-response surfaces here as an error with nothing yet written to
// the client, so the next candidate can be tried transparently. An
// answer over the buffer's bound is not that kind of error — the replica
// is alive and the next owner would produce the same body — so it comes
// back as the coordinator's own 502 naming the bound, for the caller to
// relay, rather than as the part that fit under the replica's 200.
func (c *Coordinator) forward(ctx context.Context, url, method, pathq string, body []byte) (*http.Response, []byte, error) {
	if err := faultinject.Hit(siteProxy); err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+pathq, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if n := resp.ContentLength; n >= 0 && n <= c.maxReply {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom grows only when < MinRead bytes are free
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, c.maxReply+1)); err != nil {
		return nil, nil, err
	}
	data := buf.Bytes()
	if int64(len(data)) > c.maxReply {
		resp.StatusCode = http.StatusBadGateway // headers stay: every proxied answer is JSON
		data, _ = json.Marshal(map[string]string{"error": fmt.Sprintf(
			"cluster: replica %s answered with more than the %d bytes the coordinator relays", url, c.maxReply)})
	}
	return resp, data, nil
}

// relay writes a buffered upstream response through to the client,
// rewriting async job handles into cluster-wide ids ("r<i>-<job>") so
// follow-up GET/DELETE /v1/jobs calls can be routed home.
func (c *Coordinator) relay(w http.ResponseWriter, url string, resp *http.Response, data []byte) {
	if resp.StatusCode == http.StatusAccepted {
		var acc struct {
			JobID string `json:"job_id"`
		}
		if json.Unmarshal(data, &acc) == nil && acc.JobID != "" {
			rid := fmt.Sprintf("r%d-%s", c.repIndex[url], acc.JobID)
			service.WriteJSON(w, http.StatusAccepted, map[string]string{
				"job_id":     rid,
				"status_url": "/v1/jobs/" + rid,
			})
			return
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

// handleJob proxies job status/cancel calls to the replica encoded in
// the cluster job id ("r<i>-<local id>").
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rest, ok := strings.CutPrefix(id, "r")
	if !ok {
		service.WriteError(w, http.StatusNotFound,
			"unknown job id (coordinator job ids look like r0-j00000001)")
		return
	}
	idxStr, local, ok := strings.Cut(rest, "-")
	idx, err := strconv.Atoi(idxStr)
	if !ok || err != nil || idx < 0 || idx >= len(c.cfg.Replicas) || local == "" {
		service.WriteError(w, http.StatusNotFound,
			"unknown job id (coordinator job ids look like r0-j00000001)")
		return
	}
	url := c.cfg.Replicas[idx]
	resp, data, err := c.forward(r.Context(), url, r.Method, "/v1/jobs/"+local, nil)
	if err != nil {
		c.members.MarkDown(url, err.Error())
		service.WriteError(w, http.StatusBadGateway, "replica unreachable: "+err.Error())
		return
	}
	c.relay(w, url, resp, data)
}

// handleWorkloads proxies the workload listing to any up replica — the
// list is identical fleet-wide (same binary).
func (c *Coordinator) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	for _, url := range c.cfg.Replicas {
		if c.members.State(url) != ReplicaUp {
			continue
		}
		resp, data, err := c.forward(r.Context(), url, http.MethodGet, "/v1/workloads", nil)
		if err != nil {
			c.members.MarkDown(url, err.Error())
			continue
		}
		c.relay(w, url, resp, data)
		return
	}
	service.WriteError(w, http.StatusServiceUnavailable, "cluster: no replica available")
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        service.Version,
		"go":             runtime.Version(),
		"mode":           "coordinator",
		"replicas":       c.members.Snapshot(),
		"uptime_seconds": time.Since(c.start).Seconds(),
	})
}

// handleReadyz reflects the fleet: ready while every replica is up,
// degraded-but-serving (still 200) while at least one is, 503 only when
// the coordinator itself is draining or no replica can take traffic.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	up := c.members.UpCount()
	total := len(c.cfg.Replicas)
	code, status, reason := http.StatusOK, "ready", "ok"
	switch {
	case c.draining.Load():
		code, status, reason = http.StatusServiceUnavailable, "not ready", "shutting down"
	case up == 0:
		code, status, reason = http.StatusServiceUnavailable, "not ready", "no replicas up"
	case up < total:
		status = "degraded"
		reason = fmt.Sprintf("%d/%d replicas up", up, total)
	}
	service.WriteJSON(w, code, map[string]any{
		"status":   status,
		"reason":   reason,
		"replicas": c.members.Snapshot(),
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.reg.WritePrometheus(w)
}
