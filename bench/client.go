package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed (or failed) op of a closed loop.
type sample struct {
	idx        int // position in the op sequence
	start, end time.Duration
	ok         bool
}

func (s sample) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// checker holds what the output checks need across ops: the first
// response seen for every request key (repeats must equal it), and the
// failure tally that becomes the run's `failed` count.
type checker struct {
	// remember is off for workloads whose keys never repeat, so a few
	// thousand unique reports are not kept for comparisons that never come.
	remember bool
	mu       sync.RWMutex
	firsts   map[string][2][]byte // key -> report bytes either side of overhead_cycles.sass

	failed   atomic.Int64
	shed     atomic.Int64 // 429/503 answers: the daemon refused work
	errMu    sync.Mutex
	firstErr []string // the first few failure messages, for the operator
}

func newChecker() *checker { return &checker{remember: true, firsts: map[string][2][]byte{}} }

func (c *checker) fail(format string, args ...any) {
	c.failed.Add(1)
	c.errMu.Lock()
	if len(c.firstErr) < 5 {
		c.firstErr = append(c.firstErr, fmt.Sprintf(format, args...))
	}
	c.errMu.Unlock()
}

// envelope is the part of the job status the checks read.
type envelope struct {
	State        string          `json:"state"`
	CacheHit     bool            `json:"cache_hit"`
	Degradations int             `json:"degradations"`
	Error        string          `json:"error"`
	Report       json.RawMessage `json:"report"`
}

// scanEnvelope reads the top-level fields of a job status and locates the
// report without decoding it. A full json.Unmarshal of every response
// costs the load generator as much CPU as a cache hit costs the daemon,
// and both share the same processors; this walk costs a tenth of that and
// loses nothing, because the report it skips over is either decoded in
// full (first sight of a key) or compared byte for byte against one that
// was (every repeat). It accepts any JSON formatting.
func scanEnvelope(body []byte) (env envelope, ok bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return env, false
	}
	for i = skipSpace(body, i+1); i < len(body) && body[i] != '}'; i = skipSpace(body, i) {
		keyEnd := skipValue(body, i)
		if body[i] != '"' || keyEnd < 0 {
			return env, false
		}
		key := body[i+1 : keyEnd-1]
		i = skipSpace(body, keyEnd)
		if i >= len(body) || body[i] != ':' {
			return env, false
		}
		i = skipSpace(body, i+1)
		end := skipValue(body, i)
		if end < 0 {
			return env, false
		}
		val := body[i:end]
		var err error
		switch string(key) {
		case "state":
			err = json.Unmarshal(val, &env.State)
		case "error":
			err = json.Unmarshal(val, &env.Error)
		case "cache_hit":
			env.CacheHit = string(val) == "true"
		case "degradations":
			err = json.Unmarshal(val, &env.Degradations)
		case "report":
			env.Report = val
		}
		if err != nil {
			return env, false
		}
		if i = skipSpace(body, end); i < len(body) && body[i] == ',' {
			i++
		}
	}
	return env, i < len(body)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the index just past the JSON value starting at i, or
// -1 when the input ends first.
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		for i++; i < len(b); i++ {
			switch b[i] {
			case '\\':
				i++
			case '"':
				return i + 1
			}
		}
		return -1
	case '{', '[':
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '"':
				if i = skipValue(b, i); i < 0 {
					return -1
				}
				i--
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	default: // number, true, false, null
		for i < len(b) && strings.IndexByte(",}] \n\t\r", b[i]) < 0 {
			i++
		}
		return i
	}
}

// splitAtSASSOverhead cuts a report around the value of
// overhead_cycles.sass — the one wall-clock number inside an otherwise
// deterministic document. A report without the field (a dry run) comes
// back whole.
func splitAtSASSOverhead(report []byte) (pre, suf []byte) {
	i := bytes.Index(report, []byte(`"overhead_cycles"`))
	if i < 0 {
		return report, nil
	}
	end := bytes.IndexByte(report[i:], '}')
	if end < 0 {
		return report, nil
	}
	k := bytes.Index(report[i:i+end], []byte(`"sass"`))
	if k < 0 {
		return report, nil
	}
	j := i + k + len(`"sass"`)
	for j < len(report) && (report[j] == ':' || report[j] == ' ') {
		j++
	}
	e := j
	for e < len(report) && strings.IndexByte("0123456789+-.eE", report[e]) >= 0 {
		e++
	}
	return report[:j], report[e:]
}

// check applies every output check to one response. It returns false
// (and records why) when any fails.
func (c *checker) check(r *request, wantHit bool, code int, body []byte) bool {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		c.shed.Add(1)
	}
	if code != http.StatusOK {
		c.fail("%s: HTTP %d: %.200s", r.key, code, body)
		return false
	}
	env, ok := scanEnvelope(body)
	if !ok {
		c.fail("%s: response is not a JSON object: %.200s", r.key, body)
		return false
	}
	switch {
	case env.State != "done":
		c.fail("%s: state %q (error %q)", r.key, env.State, env.Error)
		return false
	case env.Degradations != 0:
		c.fail("%s: %d degradation(s)", r.key, env.Degradations)
		return false
	case env.CacheHit != wantHit:
		c.fail("%s: cache_hit=%t, want %t", r.key, env.CacheHit, wantHit)
		return false
	}
	pre, suf := splitAtSASSOverhead(env.Report)
	c.mu.RLock()
	first, seen := c.firsts[r.key]
	c.mu.RUnlock()
	if seen {
		if bytes.Equal(pre, first[0]) && bytes.Equal(suf, first[1]) {
			return true
		}
		// A cache hit returns stored bytes and must match exactly. A
		// recomputed report may differ in the last digit of a float (the
		// simulator sums some stall integrals in map order), so it is held
		// to structural equality within 1e-9 instead.
		if wantHit || !jsonNearlyEqual(joinBlank(pre, suf), joinBlank(first[0], first[1])) {
			c.fail("%s: report differs from the first response for this key", r.key)
			return false
		}
		return true
	}
	// First sight of this key: the report must parse and name the
	// requested kernel and arch; every later repeat is held to these bytes.
	var rep struct {
		Kernel       string            `json:"kernel"`
		Arch         string            `json:"arch"`
		Degradations []json.RawMessage `json:"degradations"`
	}
	if err := json.Unmarshal(env.Report, &rep); err != nil {
		c.fail("%s: report does not parse: %v", r.key, err)
		return false
	}
	if rep.Kernel != r.kernel || rep.Arch != r.arch || len(rep.Degradations) != 0 {
		c.fail("%s: report is for %s/%s with %d degradation(s), want %s/%s clean",
			r.key, rep.Kernel, rep.Arch, len(rep.Degradations), r.kernel, r.arch)
		return false
	}
	if c.remember {
		c.mu.Lock()
		if _, raced := c.firsts[r.key]; !raced {
			c.firsts[r.key] = [2][]byte{bytes.Clone(pre), bytes.Clone(suf)}
		}
		c.mu.Unlock()
	}
	return true
}

// joinBlank reassembles a split report with a zero where the wall-clock
// number was.
func joinBlank(pre, suf []byte) []byte {
	if suf == nil {
		return pre
	}
	return append(append(bytes.Clone(pre), '0'), suf...)
}

// jsonNearlyEqual compares two JSON documents structurally, numbers
// within a relative 1e-9.
func jsonNearlyEqual(a, b []byte) bool {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	return nearlyEqual(va, vb)
}

func nearlyEqual(a, b any) bool {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, xv := range x {
			if yv, ok := y[k]; !ok || !nearlyEqual(xv, yv) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !nearlyEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	default:
		return a == b
	}
}

// loopSpec describes one closed loop: `clients` goroutines, one
// keep-alive connection each, pull ops off a shared sequence and send the
// next only after the previous answered.
type loopSpec struct {
	url     string
	clients int
	reqs    []*request
	seq     []int
	// passLen > 0 makes the loop stop only between passes (every passLen
	// ops), so the measured work is a whole number of identical passes.
	passLen int
	wantHit bool
	// budget ends a time-boxed loop; 0 runs the whole sequence.
	budget time.Duration
}

// runLoop drives the loop and returns its samples ordered by op index. A
// time-boxed loop is cut into epochs of refEvery with a reference slice
// between them (refclock.go); its samples come back in reference time and
// its clock says how that related to wall time.
func runLoop(ctx context.Context, spec loopSpec, chk *checker) ([]sample, *refClock) {
	var next, limit atomic.Int64
	limit.Store(int64(len(spec.seq)))
	perClient := make([][]sample, spec.clients)
	clients := make([]*http.Client, spec.clients)
	for c := range clients {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[c] = &http.Client{Transport: tr}
	}
	timed := spec.budget > 0
	clock := &refClock{n: spec.clients}
	// The timeline: wall time since t0 without the slices. Only this
	// goroutine moves `paused`, and only while no client runs.
	t0, paused := time.Now(), time.Duration(0)
	now := func() time.Duration { return time.Since(t0) - paused }

	var more atomic.Bool // a client stopped at the epoch's end, not the loop's
	for more.Store(true); more.Swap(false); {
		epochEnd := time.Duration(1<<63 - 1)
		if timed {
			paused += clock.slice(now())
			epochEnd = now() + refEvery
		}
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					if now() >= epochEnd {
						more.Store(true)
						return
					}
					i := next.Add(1) - 1
					if i >= limit.Load() {
						return
					}
					boundary := spec.passLen == 0 || i%int64(spec.passLen) == 0
					if timed && boundary && now() >= spec.budget {
						for {
							cur := limit.Load()
							if i >= cur || limit.CompareAndSwap(cur, i) {
								break
							}
						}
						return
					}
					r := spec.reqs[spec.seq[i]]
					s := sample{idx: int(i), start: now()}
					code, err := post(ctx, clients[c], spec.url, r.body, &buf)
					s.end = now()
					if err != nil {
						chk.fail("%s: %v", r.key, err)
					} else {
						s.ok = chk.check(r, spec.wantHit, code, buf.Bytes())
					}
					perClient[c] = append(perClient[c], s)
				}
			}(c)
		}
		wg.Wait()
	}
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	if !timed {
		return all, nil
	}
	clock.slice(now())
	clock.seal()
	for i := range all {
		all[i].start, all[i].end = clock.scale(all[i].start), clock.scale(all[i].end)
	}
	return all, clock
}

func post(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// okMillis returns the latencies of the successful samples, sorted.
func okMillis(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.ok {
			out = append(out, s.ms())
		}
	}
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile off a sorted slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// passRates turns samples into one throughput figure per whole pass:
// pass j runs from the moment the last op of pass j-1 answered to the
// moment its own last op answered. Reporting the median pass keeps one
// disturbed stretch of a run from moving the result.
func passRates(samples []sample, passLen int) []float64 {
	var rates []float64
	prevEnd := time.Duration(0)
	for lo := 0; lo+passLen <= len(samples); lo += passLen {
		end, ok := time.Duration(0), 0
		for _, s := range samples[lo : lo+passLen] {
			if s.end > end {
				end = s.end
			}
			if s.ok {
				ok++
			}
		}
		if end > prevEnd {
			rates = append(rates, float64(ok)/(end-prevEnd).Seconds())
		}
		prevEnd = end
	}
	return rates
}

// windowRates counts successful completions in `n` equal windows of the
// span [0,total) and returns each window's ops per second.
func windowRates(samples []sample, total time.Duration, n int) []float64 {
	counts := make([]int, n)
	width := total / time.Duration(n)
	for _, s := range samples {
		if w := int(s.end / width); s.ok && w < n {
			counts[w]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c) / width.Seconds()
	}
	return rates
}
