package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuscout/internal/sass"
	"gpuscout/internal/service"
)

// testCluster is an in-process fleet: n worker replicas on loopback
// listeners plus a coordinator fronting them. Replica URLs are fixed
// before any service is built (peer caches need the full list), so
// listeners are pre-created and handed to httptest.
type testCluster struct {
	urls    []string
	svcs    []*service.Service
	servers []*httptest.Server
	coord   *Coordinator
	front   *httptest.Server

	mu     sync.Mutex
	killed map[int]bool
}

func startCluster(t *testing.T, n int, svcCfg service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{killed: map[int]bool{}}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		tc.urls = append(tc.urls, "http://"+l.Addr().String())
	}
	for i := 0; i < n; i++ {
		cfg := svcCfg
		cfg.Mode = "worker"
		pc := NewPeerCache(tc.urls, tc.urls[i], PeerCacheConfig{})
		cfg.PeerFill = pc.Fill
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		ts := httptest.NewUnstartedServer(svc.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		tc.svcs = append(tc.svcs, svc)
		tc.servers = append(tc.servers, ts)
	}
	coord, err := New(Config{Replicas: tc.urls})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	coord.Start()
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		coord.Close()
		for i := range tc.servers {
			if tc.killed[i] {
				continue
			}
			tc.servers[i].Close()
			tc.svcs[i].Close()
		}
	})
	return tc
}

// kill hard-stops replica i: in-flight client connections are severed
// (mid-response death, not a graceful drain), then the server and core
// shut down.
func (tc *testCluster) kill(i int) {
	tc.mu.Lock()
	tc.killed[i] = true
	tc.mu.Unlock()
	tc.servers[i].CloseClientConnections()
	tc.servers[i].Close()
	tc.svcs[i].Close()
}

func (tc *testCluster) index(url string) int {
	for i, u := range tc.urls {
		if u == url {
			return i
		}
	}
	return -1
}

// scrapeMetric reads one Prometheus sample from base's /metrics.
func scrapeMetric(t *testing.T, base, sample string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", base, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q not found at %s", sample, base)
	return 0
}

// clusterKernelReq builds an analysis request whose fingerprint is
// unique to i: a tiny static-only SASS kernel with a distinct name and
// immediate. Static analyses run in microseconds, so tests can push
// thousands of requests through a small fleet.
func clusterKernelReq(i int) service.AnalyzeRequest {
	k := &sass.Kernel{
		Name: fmt.Sprintf("_Z6fleet%03dPf", i), Arch: "sm_70", NumRegs: 8, ConstBytes: 0x170,
		SourceFile: "fleet.cu",
		Source:     []string{"__global__ void fleet(float* x) {", "  x[0] = 1.0f;", "}"},
	}
	ctrl := sass.DefaultCtrl()
	k.Insts = []sass.Inst{
		{Pred: sass.PT, Op: sass.OpMOV, Dst: []sass.Operand{sass.R(0)}, Src: []sass.Operand{sass.Imm(int64(0x2000 + i))}, Ctrl: ctrl, Line: 2},
		{Pred: sass.PT, Op: sass.OpSTG, Mods: []string{"E", "SYS"}, Dst: []sass.Operand{sass.Mem(2, 0)}, Src: []sass.Operand{sass.R(0)}, Ctrl: ctrl, Line: 2},
		{Pred: sass.PT, Op: sass.OpEXIT, Ctrl: ctrl, Line: 3},
	}
	k.RenumberPCs()
	return service.AnalyzeRequest{SASS: sass.Print(k)}
}

// zipfPicks draws n key indexes from [0, k) under a Zipf-ish skew —
// the realistic cluster workload: a few hot fingerprints dominate,
// a long tail shows up rarely. Deterministic (seeded).
func zipfPicks(n, k int, seed int64) []int {
	weights := make([]float64, k)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), 1.2)
		total += weights[i]
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for j := range out {
		r := rng.Float64() * total
		for i, w := range weights {
			r -= w
			if r <= 0 || i == k-1 {
				out[j] = i
				break
			}
		}
	}
	return out
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestClusterAffinityHitRateAndIdenticalReports is the tentpole
// acceptance test: a 5-replica fleet under 2000 Zipf-skewed requests
// over 40 fingerprints. After a one-request-per-key warmup, routing
// affinity must make the fleet serve ≥90% of the load from cache, every
// fingerprint must have been simulated by exactly its ring owner, and
// every response must be byte-identical to a single standalone node's
// report for the same input — the determinism that makes affinity a
// pure optimization.
func TestClusterAffinityHitRateAndIdenticalReports(t *testing.T) {
	const (
		replicas = 5
		keys     = 40
		load     = 2000
		clients  = 8
	)
	tc := startCluster(t, replicas, service.Config{Workers: 2, QueueDepth: 64, CacheEntries: 4096})

	// Reference: a standalone node (no peers) analyzing the same inputs
	// over the same HTTP surface, so report bytes compare like-for-like.
	solo, err := service.New(service.Config{Workers: 2, QueueDepth: 64, CacheEntries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	soloTS := httptest.NewServer(solo.Handler())
	t.Cleanup(func() {
		soloTS.Close()
		solo.Close()
	})

	reqs := make([]service.AnalyzeRequest, keys)
	ref := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		reqs[i] = clusterKernelReq(i)
		resp, body := postJSON(t, soloTS.URL+"/v1/analyze", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solo key %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var st service.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone {
			t.Fatalf("solo key %d: %s (%s)", i, st.State, st.Error)
		}
		ref[i] = st.Report
	}

	// Warmup: one request per key through the coordinator.
	for i := 0; i < keys; i++ {
		resp, body := postJSON(t, tc.front.URL+"/v1/analyze", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup key %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var st service.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Report, ref[i]) {
			t.Fatalf("warmup key %d: cluster report differs from standalone", i)
		}
	}

	// Zipf-skewed load from concurrent clients.
	picks := zipfPicks(load, keys, 1)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	per := load / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			for _, k := range chunk {
				body, _ := json.Marshal(reqs[k])
				resp, err := http.Post(tc.front.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- fmt.Errorf("key %d: %v", k, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("key %d: status %d, body %s", k, resp.StatusCode, data)
					return
				}
				var st service.Status
				if err := json.Unmarshal(data, &st); err != nil {
					errc <- fmt.Errorf("key %d: decode: %v", k, err)
					return
				}
				if !bytes.Equal(st.Report, ref[k]) {
					errc <- fmt.Errorf("key %d: report differs from standalone reference", k)
					return
				}
			}
			errc <- nil
		}(picks[c*per : (c+1)*per])
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// Fleet-wide cache accounting. cache_misses counts "ran the
	// pipeline", so the sum across replicas is the number of distinct
	// simulations the fleet performed.
	var hits, misses float64
	for _, u := range tc.urls {
		hits += scrapeMetric(t, u, "gpuscoutd_cache_hits_total")
		misses += scrapeMetric(t, u, "gpuscoutd_cache_misses_total")
	}
	if misses != keys {
		t.Errorf("fleet simulated %g times, want exactly %d (one per fingerprint)", misses, keys)
	}
	if rate := hits / load; rate < 0.9 {
		t.Errorf("fleet hit rate = %.3f over the loaded phase, want >= 0.90", rate)
	}

	// Exactly-one-owner: each replica's miss count must equal the number
	// of keys the ring assigns it.
	owned := map[string]float64{}
	for i := 0; i < keys; i++ {
		owned[tc.coord.Ring().Owner(reqs[i].Fingerprint())]++
	}
	for _, u := range tc.urls {
		if got := scrapeMetric(t, u, "gpuscoutd_cache_misses_total"); got != owned[u] {
			t.Errorf("replica %s simulated %g keys, ring assigns it %g", u, got, owned[u])
		}
	}

	// Healthy fleet: no request should have left its first-preference owner.
	if breaks := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_affinity_breaks_total"); breaks != 0 {
		t.Errorf("affinity breaks = %g on a healthy fleet, want 0", breaks)
	}
	if shed := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_shed_total"); shed != 0 {
		t.Errorf("coordinator shed %g requests, want 0", shed)
	}
}

// TestClusterFailoverMidLoad kills a replica while load is in flight:
// every request must still answer 200 (the coordinator's buffered
// proxying makes mid-response death retryable), the dead replica's keys
// must be re-served byte-identically by their failover owners, and the
// coordinator must report itself degraded-but-serving.
func TestClusterFailoverMidLoad(t *testing.T) {
	const keys = 12
	tc := startCluster(t, 5, service.Config{Workers: 2, QueueDepth: 64, CacheEntries: 4096})

	reqs := make([]service.AnalyzeRequest, keys)
	ref := make([][]byte, keys)
	for i := 0; i < keys; i++ {
		reqs[i] = clusterKernelReq(100 + i)
		resp, body := postJSON(t, tc.front.URL+"/v1/analyze", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup key %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var st service.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ref[i] = st.Report
	}

	// The victim owns key 0 (and possibly others).
	victimURL := tc.coord.Ring().Owner(reqs[0].Fingerprint())
	victim := tc.index(victimURL)
	if victim < 0 {
		t.Fatalf("owner %s not in fleet", victimURL)
	}

	// Concurrent load across all keys; the victim dies partway through.
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	var once sync.Once
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				if c == 0 && n == 10 {
					once.Do(func() { tc.kill(victim) })
				}
				k := (c + n) % keys
				body, _ := json.Marshal(reqs[k])
				resp, err := http.Post(tc.front.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- fmt.Errorf("client %d key %d: %v", c, k, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d key %d: status %d mid-failover, body %s", c, k, resp.StatusCode, data)
					return
				}
				var st service.Status
				if err := json.Unmarshal(data, &st); err != nil {
					errc <- fmt.Errorf("client %d key %d: decode: %v", c, k, err)
					return
				}
				if !bytes.Equal(st.Report, ref[k]) {
					errc <- fmt.Errorf("client %d key %d: report changed after failover", c, k)
					return
				}
			}
			errc <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < 4; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// The dead replica's keys keep being served, byte-identically.
	for i := 0; i < keys; i++ {
		if tc.coord.Ring().Owner(reqs[i].Fingerprint()) != victimURL {
			continue
		}
		resp, body := postJSON(t, tc.front.URL+"/v1/analyze", reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dead-owner key %d: status %d, body %s", i, resp.StatusCode, body)
		}
		var st service.Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Report, ref[i]) {
			t.Errorf("dead-owner key %d: failover report differs", i)
		}
	}

	// Degraded but serving: /readyz stays 200 and says so.
	tc.coord.Membership().PollNow()
	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(tc.front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		d, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, d
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after kill: status %d, want 200 (degraded but serving), body %s", resp.StatusCode, body)
	}
	var rz struct {
		Status   string          `json:"status"`
		Replicas []ReplicaStatus `json:"replicas"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Status != "degraded" {
		t.Errorf("readyz status = %q, want degraded", rz.Status)
	}
	downSeen := false
	for _, r := range rz.Replicas {
		if r.URL == victimURL && r.State == "down" {
			downSeen = true
		}
	}
	if !downSeen {
		t.Errorf("victim %s not reported down in %+v", victimURL, rz.Replicas)
	}
	if fo := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_failovers_total"); fo < 1 {
		t.Errorf("failovers = %g, want >= 1 after killing a loaded replica", fo)
	}
}

// TestPeerCacheFill pins the two-tier cache protocol: when the ring
// owner misses locally but its failover successor already holds the
// report (it served the key while the owner was absent), the owner
// fetches the bytes from the peer instead of re-simulating.
func TestPeerCacheFill(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 2, QueueDepth: 16, CacheEntries: 64})

	req := clusterKernelReq(500)
	fp := req.Fingerprint()
	cands := tc.coord.Ring().Owners(fp, 3)
	owner, successor := cands[0], cands[1]

	// The successor serves the key first (as it would while the owner was
	// down): a local simulation, cached.
	resp, body := postJSON(t, successor+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("successor analyze: status %d, body %s", resp.StatusCode, body)
	}
	var stSucc service.Status
	if err := json.Unmarshal(body, &stSucc); err != nil {
		t.Fatal(err)
	}

	// Now the owner gets the key (as it would after rejoining): its local
	// miss must be filled from the successor, not re-simulated.
	resp, body = postJSON(t, owner+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner analyze: status %d, body %s", resp.StatusCode, body)
	}
	var stOwn service.Status
	if err := json.Unmarshal(body, &stOwn); err != nil {
		t.Fatal(err)
	}
	if !stOwn.CacheHit {
		t.Error("peer-filled response not marked as a cache hit")
	}
	if !bytes.Equal(stOwn.Report, stSucc.Report) {
		t.Error("peer-filled report differs from the peer's own bytes")
	}
	if v := scrapeMetric(t, owner, "gpuscoutd_peer_fill_hits_total"); v != 1 {
		t.Errorf("owner peer_fill_hits = %g, want 1", v)
	}
	if v := scrapeMetric(t, owner, "gpuscoutd_cache_misses_total"); v != 0 {
		t.Errorf("owner simulated %g times, want 0 (peer fill must preempt the pipeline)", v)
	}
	if v := scrapeMetric(t, successor, "gpuscoutd_peer_cache_serves_total"); v != 1 {
		t.Errorf("successor peer_cache_serves = %g, want 1", v)
	}

	// A warm owner answers from its own cache: no further peer traffic.
	resp, _ = postJSON(t, owner+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner re-analyze: status %d", resp.StatusCode)
	}
	if v := scrapeMetric(t, successor, "gpuscoutd_peer_cache_serves_total"); v != 1 {
		t.Errorf("successor served %g peer fetches, want still 1", v)
	}
}

// TestClusterBatchDedupeAndOrder drives the coordinator's batch path:
// 30 items over 10 distinct fingerprints (3 copies each, interleaved)
// must come back as 30 results in request order, cost the fleet exactly
// 10 simulations, and show 20 items deduped before fan-out.
func TestClusterBatchDedupeAndOrder(t *testing.T) {
	const distinct = 10
	tc := startCluster(t, 5, service.Config{Workers: 2, QueueDepth: 64, CacheEntries: 4096})

	var order []int
	for copyN := 0; copyN < 3; copyN++ {
		for k := 0; k < distinct; k++ {
			order = append(order, (k+copyN*3)%distinct)
		}
	}
	batch := service.BatchRequest{}
	for _, k := range order {
		batch.Requests = append(batch.Requests, clusterKernelReq(700+k))
	}

	resp, body := postJSON(t, tc.front.URL+"/v1/analyze/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, body)
	}
	var out service.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if len(out.Results) != len(order) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(order))
	}
	for i, st := range out.Results {
		if st.State != service.StateDone {
			t.Fatalf("result %d: state %s (%s)", i, st.State, st.Error)
		}
		wantName := fmt.Sprintf("_Z6fleet%03dPf", 700+order[i])
		if !bytes.Contains(st.Report, []byte(wantName)) {
			t.Errorf("result %d: report does not mention %s — request order lost", i, wantName)
		}
	}

	var misses float64
	for _, u := range tc.urls {
		misses += scrapeMetric(t, u, "gpuscoutd_cache_misses_total")
	}
	if misses != distinct {
		t.Errorf("fleet simulated %g times for the batch, want %d", misses, distinct)
	}
	if v := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_batch_deduped_total"); v != float64(len(order)-distinct) {
		t.Errorf("coordinator deduped %g items, want %d", v, len(order)-distinct)
	}
	if v := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_batch_items_total"); v != float64(len(order)) {
		t.Errorf("coordinator batch items = %g, want %d", v, len(order))
	}
}

// TestClusterBatchDedupeKeepsDistinctOptions is the coordinator half of
// the service-layer test of the same name: two items naming the same
// workload, one of them asking for a sweep and stall slices, are two
// distinct inputs and must each get the report they asked for.
func TestClusterBatchDedupeKeepsDistinctOptions(t *testing.T) {
	tc := startCluster(t, 3, service.Config{Workers: 2, QueueDepth: 16})

	resp, body := postJSON(t, tc.front.URL+"/v1/analyze/batch", service.BatchRequest{Requests: []service.AnalyzeRequest{
		{Workload: "transpose_shared", Scale: 64, SampleSMs: 1},
		{Workload: "transpose_shared", Scale: 64, SampleSMs: 1, Sensitivity: true, StallSlices: true},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, body)
	}
	var out service.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(out.Results))
	}
	for i, st := range out.Results {
		if st.State != service.StateDone {
			t.Fatalf("result %d: state %s (%s)", i, st.State, st.Error)
		}
	}
	if bytes.Contains(out.Results[0].Report, []byte(`"dominant"`)) {
		t.Error("plain item carries a sensitivity block")
	}
	for _, want := range []string{`"dominant"`, `"stall_slices"`} {
		if !bytes.Contains(out.Results[1].Report, []byte(want)) {
			t.Errorf("swept item lost %s: it was served the plain item's report", want)
		}
	}
	if v := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_batch_deduped_total"); v != 0 {
		t.Errorf("coordinator deduped %g items, want 0", v)
	}
}

// TestClusterBackpressure saturates a single-replica fleet with slow
// jobs: the worker's own 429 + Retry-After must relay through the
// coordinator, async job handles must round-trip through the cluster id
// scheme ("r0-..."), and once the health poll sees the saturated
// replica the coordinator must answer its own 429 without bothering the
// worker.
func TestClusterBackpressure(t *testing.T) {
	tc := startCluster(t, 1, service.Config{Workers: 1, QueueDepth: 1})

	slow := func() service.AnalyzeRequest {
		return service.AnalyzeRequest{Workload: "sgemm_naive", Scale: 512}
	}
	// Job 1 occupies the worker; job 2 fills the queue.
	resp, body := postJSON(t, tc.front.URL+"/v1/analyze?async=1", slow())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d, body %s", resp.StatusCode, body)
	}
	var acc struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(acc.JobID, "r0-") {
		t.Fatalf("cluster job id = %q, want r0-<local>", acc.JobID)
	}

	// The cluster id resolves through the coordinator.
	st := waitClusterJobState(t, tc.front.URL, acc.JobID, service.StateRunning)
	if st.State != service.StateRunning {
		t.Fatalf("job 1 state = %s, want running", st.State)
	}

	resp, body = postJSON(t, tc.front.URL+"/v1/analyze?async=1", slow2())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d, body %s", resp.StatusCode, body)
	}

	// Queue full: the worker sheds, and the coordinator relays 429 +
	// Retry-After verbatim.
	resp, body = postJSON(t, tc.front.URL+"/v1/analyze?async=1", slow3())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want relayed 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed 429 lost its Retry-After header")
	}
	if v := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_shed_total"); v != 0 {
		t.Errorf("shed = %g before the poll saw saturation, want 0", v)
	}

	// After a poll sweep the replica is NotReady: the coordinator sheds
	// at the front door with its aggregated hint.
	tc.coord.Membership().PollNow()
	if got := tc.coord.Membership().State(tc.urls[0]); got != ReplicaNotReady {
		t.Fatalf("replica state after saturation poll = %v, want not_ready", got)
	}
	resp, body = postJSON(t, tc.front.URL+"/v1/analyze?async=1", slow4())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-poll request: status %d, want coordinator 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("coordinator 429 missing Retry-After")
	}
	if v := scrapeMetric(t, tc.front.URL, "gpuscoutd_cluster_shed_total"); v < 1 {
		t.Errorf("shed = %g, want >= 1 once the coordinator answers saturation itself", v)
	}

	// Drain: cancel job 1 so cleanup isn't stuck behind a long simulation.
	reqDel, _ := http.NewRequest(http.MethodDelete, tc.front.URL+"/v1/jobs/"+acc.JobID, nil)
	if respDel, err := http.DefaultClient.Do(reqDel); err == nil {
		respDel.Body.Close()
	}
}

// slow2..slow4 vary the fingerprint so queue slots aren't deduplicated
// by the content-addressed cache path.
func slow2() service.AnalyzeRequest {
	return service.AnalyzeRequest{Workload: "sgemm_naive", Scale: 576}
}
func slow3() service.AnalyzeRequest {
	return service.AnalyzeRequest{Workload: "sgemm_naive", Scale: 640}
}
func slow4() service.AnalyzeRequest {
	return service.AnalyzeRequest{Workload: "sgemm_naive", Scale: 704}
}

func waitClusterJobState(t *testing.T, front, id string, want service.State) service.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(front + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		var st service.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		if st.State == want || st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return service.Status{}
}

// proxiedTotal sums the coordinator's per-replica proxy counters.
func proxiedTotal(t *testing.T, front string, replicas []string) float64 {
	t.Helper()
	var sum float64
	for _, u := range replicas {
		sum += scrapeMetric(t, front, fmt.Sprintf("gpuscoutd_cluster_proxied_total{replica=%q}", u))
	}
	return sum
}

// TestCoordinatorRoutesArchSpellingsToOneOwner: every spelling of one
// architecture is one routing identity, so the six ways to say sm_70
// warm one replica's cache instead of up to six.
func TestCoordinatorRoutesArchSpellingsToOneOwner(t *testing.T) {
	tc := startCluster(t, 5, service.Config{Workers: 2, QueueDepth: 16})
	for _, spellings := range [][]string{
		{"", "sm_70", "sm70", "V100", "v100", "Tesla V100"},
		{"sm_80", "sm80", "A100", "a100"},
	} {
		owners := map[string]bool{}
		for _, sp := range spellings {
			req := service.AnalyzeRequest{Workload: "transpose_naive", Scale: 32, DryRun: true, Arch: sp}
			owners[tc.coord.Ring().Owner(req.Fingerprint())] = true
			if resp, body := postJSON(t, tc.front.URL+"/v1/analyze", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("arch %q: status %d, body %s", sp, resp.StatusCode, body)
			}
		}
		if len(owners) != 1 {
			t.Errorf("spellings %q have %d ring owners, want 1", spellings, len(owners))
		}
		for owner := range owners {
			sample := fmt.Sprintf("gpuscoutd_cluster_proxied_total{replica=%q}", owner)
			if got := scrapeMetric(t, tc.front.URL, sample); got < float64(len(spellings)) {
				t.Errorf("owner of %q was proxied %g requests, want all %d", spellings, got, len(spellings))
			}
		}
	}
}

// TestNewLeavesCallersReplicaSlice: trailing slashes are trimmed in the
// coordinator's own copy of the list, not in the slice it was handed.
func TestNewLeavesCallersReplicaSlice(t *testing.T) {
	urls := []string{"http://127.0.0.1:1/", "http://127.0.0.1:2//"}
	coord, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	if urls[0] != "http://127.0.0.1:1/" || urls[1] != "http://127.0.0.1:2//" {
		t.Errorf("New edited the caller's slice: %q", urls)
	}
	if got := coord.Membership().Snapshot(); got[0].URL != "http://127.0.0.1:1" || got[1].URL != "http://127.0.0.1:2" {
		t.Errorf("replicas not normalised: %+v", got)
	}
}

// TestCloseWithoutStart: a coordinator built only to inspect its ring has
// no poller to wait for, so Close returns at once.
func TestCloseWithoutStart(t *testing.T) {
	coord, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	coord.Close()
	if d := time.Since(begin); d > time.Second {
		t.Errorf("Close without Start took %v", d)
	}
}

// TestCoordinatorRuntimeGauges: the coordinator's /metrics carries the
// same Go runtime gauges as a worker's.
func TestCoordinatorRuntimeGauges(t *testing.T) {
	coord, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	for _, name := range []string{"gpuscoutd_go_goroutines", "gpuscoutd_go_heap_inuse_bytes"} {
		if v := scrapeMetric(t, front.URL, name); v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	for _, name := range []string{"gpuscoutd_go_gc_cycles_total", "gpuscoutd_go_gc_pause_seconds_total"} {
		if v := scrapeMetric(t, front.URL, name); v < 0 {
			t.Errorf("%s = %g, want >= 0", name, v)
		}
	}
}

// TestCoordinatorDoorRejectsMalformedRequests: the coordinator decodes
// and validates through the same front door as a worker, so a malformed
// request is answered by the coordinator itself — nothing is
// fingerprinted, routed or proxied first.
func TestCoordinatorDoorRejectsMalformedRequests(t *testing.T) {
	tc := startCluster(t, 2, service.Config{Workers: 1, QueueDepth: 4})
	coord, err := New(Config{Replicas: tc.urls, MaxUploadBytes: 2048, MaxBatchItems: 2})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		front.Close()
		coord.Close()
	})

	ok := `{"workload":"transpose_naive","scale":32,"dry_run":true}`
	for _, c := range []struct {
		name, path, body string
		status           int
		mention          string
	}{
		{"unknown field", "/v1/analyze", `{"workload":"transpose_naive","scael":32}`, http.StatusBadRequest, "scael"},
		{"no source", "/v1/analyze", `{"scale":32}`, http.StatusBadRequest, "exactly one of"},
		{"oversized body", "/v1/analyze", `{"sass":"` + strings.Repeat("a", 4096) + `"}`, http.StatusRequestEntityTooLarge, "too large"},
		{"invalid batch item", "/v1/analyze/batch", `{"requests":[` + ok + `,{"sass":"x","verify":true}]}`, http.StatusBadRequest, "request 1:"},
		{"empty batch", "/v1/analyze/batch", `{"requests":[]}`, http.StatusBadRequest, "no requests"},
		{"batch over the item limit", "/v1/analyze/batch", `{"requests":[` + ok + `,` + ok + `,` + ok + `]}`, http.StatusRequestEntityTooLarge, "limit 2"},
		{"trailing document", "/v1/analyze", `{"workload":"transpose_naive"}{"verify":true}`, http.StatusBadRequest, "decode request: trailing data"},
		{"trailing batch document", "/v1/analyze/batch", `{"requests":[` + ok + `]} {"requests":[]}`, http.StatusBadRequest, "decode request: trailing data"},
	} {
		resp, err := http.Post(front.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.mention) {
			t.Errorf("%s: status %d body %s, want %d mentioning %q", c.name, resp.StatusCode, body, c.status, c.mention)
		}
	}
	if got := proxiedTotal(t, front.URL, tc.urls); got != 0 {
		t.Errorf("coordinator proxied %g malformed requests to workers, want 0", got)
	}

	// The door is not in the way of a well-formed request.
	resp, err := http.Post(front.URL+"/v1/analyze", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := proxiedTotal(t, front.URL, tc.urls); resp.StatusCode != http.StatusOK || got != 1 {
		t.Errorf("well-formed request: status %d, proxied %g; want 200 and 1", resp.StatusCode, got)
	}
}

// TestCoordinatorRefusesOverLimitReply: forward buffers a replica's
// answer up to a bound. An answer past it used to be cut at the bound and
// relayed — half a JSON document under the replica's 200. It is a 502
// naming the bound now, from the first owner alone: the replica is alive
// and the next owner would produce the same body, so nothing fails over
// and nobody is marked down. An answer of exactly the bound passes whole.
func TestCoordinatorRefusesOverLimitReply(t *testing.T) {
	const limit = 1 << 10
	var asked, size atomic.Int32
	size.Store(limit + 1)
	stub := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/analyze" {
				return // /readyz: 200
			}
			asked.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"pad":"%s"}`, strings.Repeat("x", int(size.Load())-len(`{"pad":""}`)))
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	urls := []string{stub().URL, stub().URL}
	coord, err := New(Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	coord.maxReply = limit
	coord.Start()
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	req := service.AnalyzeRequest{Workload: "transpose_naive", DryRun: true}
	resp, body := postJSON(t, front.URL+"/v1/analyze", req)
	var doc struct{ Error string }
	if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusBadGateway || !strings.Contains(doc.Error, "1024 bytes") {
		t.Errorf("over-limit reply: status %d, body %.120s; want a 502 error document naming the 1024-byte bound", resp.StatusCode, body)
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("%d replicas were asked, want the owner alone (no failover)", n)
	}
	if n := scrapeMetric(t, front.URL, "gpuscoutd_cluster_failovers_total"); n != 0 {
		t.Errorf("failovers = %g, want 0", n)
	}
	if up := coord.Membership().UpCount(); up != 2 {
		t.Errorf("%d replicas up after an over-limit reply, want 2", up)
	}

	size.Store(limit)
	resp, body = postJSON(t, front.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK || len(body) != limit || !json.Valid(body) {
		t.Errorf("reply of exactly the bound: status %d, %d bytes; want the replica's 200 and all %d bytes", resp.StatusCode, len(body), limit)
	}
}
