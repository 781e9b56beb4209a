package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
)

func TestReportCacheLRU(t *testing.T) {
	c := newReportCache(2, 0)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	// a was just refreshed, so inserting c evicts b.
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite being most recently used")
	}
	if c.size() != 2 {
		t.Errorf("size = %d, want 2", c.size())
	}
	// Overwriting an existing key must not grow the cache.
	c.put("a", []byte("A2"))
	if data, _ := c.get("a"); string(data) != "A2" {
		t.Errorf("a = %q after overwrite", data)
	}
	if c.size() != 2 {
		t.Errorf("size = %d after overwrite, want 2", c.size())
	}
}

// TestReportCacheConcurrentChurn hammers a tiny cache with parallel
// get/put churn over a key space 4× its capacity (run under -race in
// CI): the capacity bound must hold at every observation point, and a
// get must never return bytes that belong to a different key — the
// "stale bytes" failure a broken map/list pairing would produce.
func TestReportCacheConcurrentChurn(t *testing.T) {
	const (
		capacity   = 8
		keySpace   = 32
		goroutines = 8
		ops        = 4000
	)
	c := newReportCache(capacity, 0)
	payload := func(k int) []byte { return []byte(fmt.Sprintf("report-%03d-payload", k)) }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keySpace)
				key := fmt.Sprintf("key-%03d", k)
				if rng.Intn(2) == 0 {
					c.put(key, payload(k))
				} else if data, ok := c.get(key); ok && !bytes.Equal(data, payload(k)) {
					t.Errorf("stale bytes for %s: got %q", key, data)
				}
				if i%64 == 0 {
					if s := c.size(); s > capacity {
						t.Errorf("size %d exceeds capacity %d mid-churn", s, capacity)
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if s := c.size(); s > capacity {
		t.Errorf("final size %d exceeds capacity %d", s, capacity)
	}
	// The cache must still behave after the storm.
	c.put("after", []byte("A"))
	if data, ok := c.get("after"); !ok || string(data) != "A" {
		t.Errorf("cache broken after churn: %q %v", data, ok)
	}
}

func TestReportCacheDisabled(t *testing.T) {
	c := newReportCache(-1, 0)
	c.put("a", []byte("A"))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := CacheKey("SASS", "sm_70", "static", scout.Options{}, false, false)
	if CacheKey("SASS", "sm_70", "static", scout.Options{}, false, false) != base {
		t.Error("cache key not deterministic")
	}
	variants := []string{
		CacheKey("SASS2", "sm_70", "static", scout.Options{}, false, false),
		CacheKey("SASS", "sm_60", "static", scout.Options{}, false, false),
		CacheKey("SASS", "sm_70", "workload=sgemm_naive scale=256", scout.Options{}, false, false),
		CacheKey("SASS", "sm_70", "workload=sgemm_naive scale=320", scout.Options{}, false, false),
		CacheKey("SASS", "sm_70", "static", scout.Options{DryRun: true}, false, false),
		CacheKey("SASS", "sm_70", "static", scout.Options{SamplingPeriod: 512}, false, false),
		CacheKey("SASS", "sm_70", "static", scout.Options{Sim: sim.Config{SampleSMs: 2}}, false, false),
		CacheKey("SASS", "sm_70", "static", scout.Options{}, true, false),
		CacheKey("SASS", "sm_70", "static", scout.Options{}, false, true),
		CacheKey("SASS", "sm_70", "static", scout.Options{StallSlices: true}, false, false),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides with another key", i)
		}
		seen[v] = true
	}
	if len(base) != 64 {
		t.Errorf("key %q is not a SHA-256 hex digest", base)
	}
}

func TestMetricsExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Ops.", Label{"kind", "x"})
	c.Add(3)
	r.NewGaugeFunc("test_depth", "Depth.", func() float64 { return 2 })
	r.NewGaugeFunc("test_fn", "Fn.", func() float64 { return 7 })
	h := r.NewHistogram("test_seconds", "Latency.", []float64{0.1, 1}, Label{"stage", "build"})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Ops.",
		"# TYPE test_ops_total counter",
		`test_ops_total{kind="x"} 3`,
		"# TYPE test_depth gauge",
		"test_depth 2",
		"test_fn 7",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{stage="build",le="0.1"} 1`,
		`test_seconds_bucket{stage="build",le="1"} 2`,
		`test_seconds_bucket{stage="build",le="+Inf"} 3`,
		`test_seconds_sum{stage="build"} 5.55`,
		`test_seconds_count{stage="build"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsLabelEscaping(t *testing.T) {
	got := labelString([]Label{{"a", `x"y\z` + "\n"}})
	want := `{a="x\"y\\z\n"}`
	if got != want {
		t.Errorf("labelString = %s, want %s", got, want)
	}
}

// waitParked returns once a goroutine is blocked in pool.submit waiting
// for a place.
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, ".(*pool).submit(") {
				return
			}
		}
	}
	t.Fatal("no submission parked waiting for a place")
}

func TestPoolBackpressureAndShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	p := newPool(1, 1, func(j *Job) {
		started <- j.ID
		<-release
		j.finish(StateDone, nil, "", "")
	})

	j := func(id string) *Job { return newJob(id, AnalyzeRequest{}, context.Background(), func() {}) }
	if err := p.submit(j("a"), nil); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	<-started // a occupies the worker
	if err := p.submit(j("b"), nil); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if err := p.submit(j("c"), nil); err != ErrQueueFull {
		t.Fatalf("submit c: err = %v, want ErrQueueFull", err)
	}
	if d := p.depth(); d != 1 {
		t.Errorf("depth = %d, want 1", d)
	}
	expired := make(chan struct{})
	close(expired)
	if err := p.submit(j("c"), expired); err != ErrQueueFull {
		t.Fatalf("submit c with a closed wait: err = %v, want ErrQueueFull", err)
	}

	// A waiter is admitted by the place a finished job frees, and comes
	// first: that place is the waiter's before any new fail-fast
	// submission can take it.
	waited := func(id string) chan error {
		errc := make(chan error, 1)
		go func() { errc <- p.submit(j(id), make(chan struct{})) }()
		return errc
	}
	w := waited("w")
	waitParked(t)
	release <- struct{}{} // a finishes; the worker takes b, handing b's place to w
	if id := <-started; id != "b" {
		t.Fatalf("worker took %s, want b", id)
	}
	if err := p.submit(j("f"), nil); err != ErrQueueFull {
		t.Fatalf("fail-fast submit with a waiter parked: err = %v, want ErrQueueFull", err)
	}
	if err := <-w; err != nil {
		t.Fatalf("waiter w: %v, want admitted", err)
	}

	// Shutdown wakes a waiter before it closes the queue.
	x := waited("x")
	down := make(chan struct{})
	go func() { p.shutdown(); close(down) }()
	if err := <-x; err != ErrClosed {
		t.Errorf("waiter x at shutdown: err = %v, want ErrClosed", err)
	}
	close(release)
	<-down
	if id := <-started; id != "w" {
		t.Errorf("worker took %s, want the admitted waiter w", id)
	}
	if err := p.submit(j("d"), nil); err != ErrClosed {
		t.Errorf("submit after shutdown: err = %v, want ErrClosed", err)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	// Many concurrent identical dry-run submissions: all succeed or shed
	// cleanly, and cache + counters stay consistent under -race.
	svc, err := New(Config{Workers: 4, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			j, err := svc.Submit(AnalyzeRequest{Workload: "transpose_naive", DryRun: true})
			if err != nil {
				errs <- fmt.Errorf("submit: %w", err)
				return
			}
			<-j.Done()
			if st := j.Snapshot(); st.State != StateDone {
				errs <- fmt.Errorf("job %s: %s (%s)", j.ID, st.State, st.Error)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	hits := svc.cacheHits.Value()
	misses := svc.cacheMisses.Value()
	if hits+misses != n {
		t.Errorf("hits(%d)+misses(%d) != %d", hits, misses, n)
	}
	if misses < 1 {
		t.Error("expected at least one cache miss")
	}
	if svc.cache.size() != 1 {
		t.Errorf("cache size = %d, want 1 (content-addressed)", svc.cache.size())
	}
}
