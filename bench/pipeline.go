package main

// The traced pass. The program under test carries no tracing of its own
// yet, so the request path is performed here as a sequence of calls into
// the layers' public functions with a span around each — the same calls,
// in the same order, that service.executeAttempt makes. Parts that only
// run inside another public function (the kernel view, the detectors and
// the two collectors inside scout.AnalyzeContext) are additionally called
// stand-alone so they can be sized; their span names say so in README.md.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"gpuscout/internal/advisor"
	"gpuscout/internal/cluster"
	"gpuscout/internal/cubin"
	"gpuscout/internal/cupti"
	"gpuscout/internal/gpu"
	"gpuscout/internal/ncu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/service"
	"gpuscout/internal/sim"
	"gpuscout/internal/store"
	"gpuscout/internal/workloads"
)

// acc collects the counts a traced pass reports next to its span times.
type acc struct {
	ops int
	// cycles holds one entry per launch and is summed in sorted order, so
	// the total does not depend on the seeded order of the ops.
	cycles      []float64
	warpInsts   uint64
	allocs      uint64 // heap objects allocated inside sim launches
	reruns      int    // advisor re-executions (verify variants + sweep perturbations)
	reportBytes int
}

func (a *acc) addLaunch(res *sim.Result, allocs uint64) {
	a.cycles = append(a.cycles, res.Cycles)
	a.warpInsts += res.Counters.WarpInsts
	a.allocs += allocs
}

// heapObjects reads the cumulative count of heap allocations without
// stopping the world.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtSnap is the runtime's view of the process at one instant.
type rtSnap struct {
	allocBytes, pauseNs uint64
	gcCPU, totalCPU     float64
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSnap{m.TotalAlloc, m.PauseTotalNs, s[0].Value.Float64(), s[1].Value.Float64()}
}

func runtimeMetrics(vals map[string]float64, before, after rtSnap, ops int) {
	vals["runtime.alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1024 / float64(max(ops, 1))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		vals["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	vals["runtime.gc_pause_ms_total"] = float64(after.pauseNs-before.pauseNs) / 1e6
}

func clientMetrics(vals map[string]float64, ms []float64) {
	vals["client.samples"] = float64(len(ms))
	vals["client.op_ms_p50"] = quantile(ms, 0.5)
	vals["client.op_ms_p90"] = quantile(ms, 0.9)
	vals["client.op_ms_max"] = quantile(ms, 1)
	if len(ms) >= 1000 { // a p99 needs ten samples beyond it
		vals["client.op_ms_p99"] = quantile(ms, 0.99)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanMetrics turns the trace into per-layer values: span "x.y" becomes
// metric "x.y_ms", mean self time per traced op; "sim.launch.<kernel>"
// becomes "sim.launch_ms.<kernel>".
func spanMetrics(vals map[string]float64, tr *tracer, a *acc, tracedWall, untracedWall time.Duration) {
	self, _ := tr.selfTimes()
	ops := float64(max(a.ops, 1))
	sort.Float64s(a.cycles)
	var cycles float64
	for _, c := range a.cycles {
		cycles += c
	}
	launch := self["sim.launch"]
	for name, d := range self {
		if kernel, ok := strings.CutPrefix(name, "sim.launch."); ok {
			vals["sim.launch_ms."+kernel] = msOf(d) / ops
			launch += d
			continue
		}
		vals[name+"_ms"] = msOf(d) / ops
	}
	if launch > 0 {
		vals["sim.launch_ms"] = msOf(launch) / ops
		vals["sim.host_ns_per_cycle"] = float64(launch) / cycles
		vals["sim.host_ns_per_warp_inst"] = float64(launch) / float64(a.warpInsts)
		vals["sim.allocs_per_launch"] = float64(a.allocs) / float64(len(a.cycles))
	}
	vals["sim.cycles_total"] = cycles
	vals["sim.warp_insts_total"] = float64(a.warpInsts)
	vals["advisor.reruns_per_op"] = float64(a.reruns) / ops
	vals["scout.report_bytes"] = float64(a.reportBytes) / ops
	// Per-pass, not per-op: one Open per traced pass.
	vals["store.open_ms"] = msOf(self["store.open"])
	// Differences of two spans over the same request.
	if d, ok := self["service.http_op"]; ok {
		vals["service.http_overhead_ms"] = msOf(d-self["service.hit"]) / ops
	}
	if d, ok := self["cluster.coord_op"]; ok {
		vals["cluster.proxy_overhead_ms"] = msOf(d-self["service.http_op"]) / ops
	}
	if d, ok := self["cluster.ring_owner"]; ok {
		vals["cluster.ring_owner_ns"] = float64(d) / ops / ringOwnerCalls
	}
	if tracedWall > 0 {
		// The share of the traced wall spent inside a named layer call, as
		// opposed to benchmark glue between calls.
		vals["trace.coverage"] = float64(tr.rootTime()-self["op"]-self["store.open"]) / float64(tracedWall)
	}
	if untracedWall > 0 {
		vals["trace.overhead_ratio"] = float64(tracedWall) / float64(untracedWall)
	}
}

// ---- sim_large ----

const simLargeTracedRounds = 3

func (e *simLargeEnv) layers(rc *runCtx, tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	results := map[string]*sim.Result{} // per kernel; every launch of a kernel simulates the same
	round := func(tr *tracer, op int, a *acc) (time.Duration, error) {
		root := tr.begin("op", op)
		defer root.end()
		var wall time.Duration
		for _, k := range e.kernels {
			objs := heapObjects()
			res, w, err := e.launch(k, simLargeCfg, tr, op)
			if err != nil {
				rc.chk.fail("sim_large %s: %v", k.name, err)
				return 0, err
			}
			wall += w
			results[k.name] = res
			if a != nil {
				// Covers Prepare and Verify too; both allocate a few buffers,
				// the launch is what a regression would change.
				a.addLaunch(res, heapObjects()-objs)
			}
		}
		return wall, nil
	}
	rounds := rc.scaled(simLargeTracedRounds, 1)
	before := readRuntime()
	t := time.Now()
	var walls []float64
	for op := 0; op < rounds; op++ {
		w, err := round(nil, op, nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, msOf(w))
	}
	untraced := time.Since(t)
	runtimeMetrics(vals, before, readRuntime(), rounds)
	sort.Float64s(walls)
	clientMetrics(vals, walls)

	a := &acc{ops: rounds}
	t = time.Now()
	for op := 0; op < rounds; op++ {
		if _, err := round(tr, op, a); err != nil {
			return nil, err
		}
	}
	traced := time.Since(t)
	spanMetrics(vals, tr, a, traced, untraced)

	// Per-kernel host cost per simulated event.
	self, count := tr.selfTimes()
	for _, k := range e.kernels {
		perLaunch := float64(self["sim.launch."+k.name]) / float64(count["sim.launch."+k.name])
		vals["sim.host_ns_per_cycle."+k.name] = perLaunch / results[k.name].Cycles
		vals["sim.host_ns_per_warp_inst."+k.name] = perLaunch / float64(results[k.name].Counters.WarpInsts)
	}

	// Wall-clock gain of per-SM parallelism: only a host with a second
	// processor can show one, so a 1-CPU host reports 0, not a fake ~1.0.
	if runtime.NumCPU() >= 2 {
		cfg := simLargeCfg
		cfg.Workers = rc.clients
		var seq, par time.Duration
		for _, k := range e.kernels {
			_, w, err := e.launch(k, cfg, nil, 0)
			if err != nil {
				return nil, err
			}
			par += w
			seq += self["sim.launch."+k.name] / time.Duration(count["sim.launch."+k.name])
		}
		vals["sim.parallel_wall_ratio"] = float64(seq) / float64(par)
	}
	return vals, nil
}

// ---- daemon workloads ----

// opFunc replays one request through the layers.
type opFunc func(ctx context.Context, op int, r *request, a *acc) error

// tracePlan sizes a daemon workload's traced run: loopOps ops through the
// real daemon (client tail, /metrics deltas, runtime), then pipelineOps
// ops through the layer calls, untraced and traced. Fixed counts, so the
// simulated statistics of a traced run repeat exactly. build prepares one
// pass over reqs under tr and returns its op function and clean-up.
type tracePlan struct {
	loopOps, pipelineOps int
	build                func(e *daemonEnv, rc *runCtx, tr *tracer, reqs []*request) (opFunc, func() error, error)
}

func (e *daemonEnv) layers(rc *runCtx, tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	seq := e.seq(rc)
	loopOps := min(rc.scaled(e.plan.loopOps, 20), len(seq))

	// 1. The daemon, over real HTTP.
	urls := []string{e.url}
	if e.fleet != nil {
		for _, w := range e.fleet.workers {
			urls = append(urls, w.url)
		}
	}
	m0, err := scrapeAll(urls...)
	if err != nil {
		return nil, err
	}
	shed0 := rc.chk.shed.Load()
	before := readRuntime()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	samples, _ := runLoop(ctx, loopSpec{
		url: e.url, clients: e.clients, reqs: e.reqs, seq: seq[:loopOps], wantHit: e.wantHit,
	}, rc.chk)
	runtimeMetrics(vals, before, readRuntime(), len(samples))
	clientMetrics(vals, okMillis(samples))
	m1, err := scrapeAll(urls...)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return sumPrefix(m1, name) - sumPrefix(m0, name) }
	hits := delta("gpuscoutd_cache_hits_total") + delta("gpuscoutd_store_hits_total") + delta("gpuscoutd_peer_fill_hits_total")
	if total := hits + delta("gpuscoutd_cache_misses_total"); total > 0 {
		vals["service.cache_hit_ratio"] = hits / total
	}
	vals["service.retries_total"] = delta("gpuscoutd_retries_total")
	vals["service.degraded_total"] = delta("gpuscoutd_degraded_reports_total")
	vals["service.shed_total"] = float64(rc.chk.shed.Load()-shed0) + delta("gpuscoutd_cluster_shed_total")
	vals["store.hits_total"] = delta("gpuscoutd_store_hits_total")
	if proxied := delta("gpuscoutd_cluster_proxied_total"); proxied > 0 {
		vals["cluster.affinity_ratio"] = 1 - delta("gpuscoutd_cluster_affinity_breaks_total")/proxied
		var most float64
		for k, v := range m1 {
			if strings.HasPrefix(k, "gpuscoutd_cluster_proxied_total{") {
				most = max(most, v-m0[k])
			}
		}
		vals["cluster.replica_skew"] = most / (proxied / float64(len(e.fleet.workers)))
	}
	if e.dataDir != "" {
		n, err := dirBytes(e.dataDir)
		if err != nil {
			return nil, err
		}
		vals["store.bytes_on_disk"] = float64(n)
		vals["store.restart_ms"] = e.restartS * 1000
	}

	// 2. The layers, called directly: once untraced for the overhead
	// ratio, once traced for everything else.
	reqs := make([]*request, min(rc.scaled(e.plan.pipelineOps, 4), len(seq)))
	for i := range reqs {
		if reqs[i], err = e.reqs[seq[i]].decoded(); err != nil {
			return nil, err
		}
	}
	pass := func(tr *tracer, a *acc) (time.Duration, error) {
		op, done, err := e.plan.build(e, rc, tr, reqs)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		for i, r := range reqs {
			if err := op(ctx, i, r, a); err != nil {
				rc.chk.fail("%s traced op %d (%s): %v", e.name, i, r.key, err)
				done()
				return 0, err
			}
		}
		wall := time.Since(t)
		return wall, done()
	}
	untraced, err := pass(nil, &acc{})
	if err != nil {
		return nil, err
	}
	a := &acc{ops: len(reqs)}
	traced, err := pass(tr, a)
	if err != nil {
		return nil, err
	}
	spanMetrics(vals, tr, a, traced, untraced)
	return vals, nil
}

func noCleanup() error { return nil }

// resolveSpans performs what the service does for every workload-name
// request before it can even look in its cache: build the kernel, print
// its canonical SASS, derive the key.
func resolveSpans(tr *tracer, op int, r *request) (*workloads.Workload, gpu.Arch, scout.Options, string, error) {
	arch, err := gpu.ByName(r.req.Arch)
	if err != nil {
		return nil, arch, scout.Options{}, "", err
	}
	sp := tr.begin("workloads.build", op)
	w, err := workloads.BuildArch(r.req.Workload, r.req.Scale, arch)
	sp.end()
	if err != nil {
		return nil, arch, scout.Options{}, "", err
	}
	opts := scout.Options{
		StallSlices: r.req.StallSlices,
		Sim:         sim.Config{SampleSMs: r.req.SampleSMs, Workers: 1},
	}
	launch := fmt.Sprintf("workload=%s scale=%d", r.req.Workload, r.req.Scale)
	return w, arch, opts, keySpans(tr, op, w.Kernel, arch, launch, opts, r), nil
}

// keySpans prints the canonical SASS and derives the cache key from it.
func keySpans(tr *tracer, op int, k *sass.Kernel, arch gpu.Arch, launch string, opts scout.Options, r *request) string {
	sp := tr.begin("sass.print", op)
	text := sass.Print(k)
	sp.end()
	sp = tr.begin("service.cache_key", op)
	key := service.CacheKey(text, arch.SM, launch, opts, r.req.Verify, r.req.Sensitivity)
	sp.end()
	return key
}

// staticSpans analyses a kernel statically and encodes the report; the
// view and the detectors, which AnalyzeContext runs internally, are then
// called stand-alone so they can be sized.
func staticSpans(ctx context.Context, tr *tracer, op int, k *sass.Kernel, arch gpu.Arch, opts scout.Options, run scout.RunContextFunc) (*scout.Report, error) {
	sp := tr.begin("scout.analyze_self", op)
	rep, err := scout.AnalyzeContext(ctx, arch, k, run, opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("sass.view", op)
	view, err := scout.NewKernelView(k)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("scout.detect", op)
	for _, an := range scout.AllAnalysesFor(arch) {
		an.Detect(view)
	}
	sp.end()
	return rep, nil
}

func marshalSpan(tr *tracer, op int, rep *scout.Report, a *acc) ([]byte, error) {
	if n := len(rep.Degradations); n > 0 {
		return nil, fmt.Errorf("%d degradation(s), first: %+v", n, rep.Degradations[0])
	}
	sp := tr.begin("scout.marshal_json", op)
	data, err := rep.MarshalJSON()
	sp.end()
	a.reportBytes += len(data)
	return data, err
}

// planAnalyze is the cold path: resolve, the three pillars with the
// launch broken out, optional verification and sweep, both encodings.
func planAnalyze(_ *daemonEnv, _ *runCtx, tr *tracer, _ []*request) (opFunc, func() error, error) {
	return func(ctx context.Context, op int, r *request, a *acc) error {
		root := tr.begin("op", op)
		defer root.end()
		w, arch, opts, _, err := resolveSpans(tr, op, r)
		if err != nil {
			return err
		}
		run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			dev := sim.NewDevice(arch)
			sp := tr.begin("workloads.prepare", op)
			run, err := w.Prepare(dev)
			sp.end()
			if err != nil {
				return nil, err
			}
			objs := heapObjects()
			sp = tr.begin("sim.launch", op)
			res, err := sim.LaunchContext(ctx, dev, run.Spec, cfg)
			sp.end()
			if err != nil {
				return nil, err
			}
			a.addLaunch(res, heapObjects()-objs)
			sp = tr.begin("workloads.verify", op)
			err = run.Verify(dev, res)
			sp.end()
			return res, err
		}
		rep, err := staticSpans(ctx, tr, op, w.Kernel, arch, opts, run)
		if err != nil {
			return err
		}
		if r.req.Verify {
			sp := tr.begin("advisor.verify", op)
			_, err = advisor.Verify(ctx, rep, r.req.Workload, r.req.Scale, arch, opts.Sim)
			sp.end()
			if err != nil {
				return err
			}
			variants := map[string]bool{}
			for i := range rep.Findings {
				if v := rep.Findings[i].Verification; v != nil {
					variants[v.Fixed] = true
				}
			}
			a.reruns += len(variants)
		}
		if r.req.Sensitivity {
			sp := tr.begin("advisor.sweep", op)
			sens, err := advisor.Sweep(ctx, rep, r.req.Workload, r.req.Scale, arch, opts.Sim)
			sp.end()
			if err != nil {
				return err
			}
			a.reruns += len(sens.Deltas)
		}
		if _, err := marshalSpan(tr, op, rep, a); err != nil {
			return err
		}
		sp := tr.begin("scout.render", op)
		text := rep.Render()
		sp.end()
		if text == "" {
			return fmt.Errorf("empty text report")
		}
		// The two collectors, also internal to AnalyzeContext.
		sp = tr.begin("cupti.collect", op)
		_, err = cupti.Collect(w.Kernel, rep.Result, cupti.Config{})
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("ncu.collect", op)
		_, err = ncu.Collector{Arch: arch}.Collect(ncu.Context{Kernel: w.Kernel, Result: rep.Result}, rep.Metrics.SortedNames())
		sp.end()
		return err
	}, noCleanup, nil
}

// ringOwnerCalls is how often one cluster.ring_owner span calls
// Ring.Owner: a single call is shorter than the clock's resolution.
const ringOwnerCalls = 100

// planHit is the warm path: what a hit costs inside the service
// (Submit -> Done), what HTTP adds, and on a cluster what the hop adds.
func planHit(e *daemonEnv, rc *runCtx, tr *tracer, _ []*request) (opFunc, func() error, error) {
	tport := &http.Transport{MaxIdleConnsPerHost: 4}
	client := &http.Client{Transport: tport}
	svcByURL := map[string]*service.Service{}
	peerByURL := map[string]*cluster.PeerCache{}
	var workerURLs []string
	if e.fleet != nil {
		for _, w := range e.fleet.workers {
			svcByURL[w.url] = w.svc
			workerURLs = append(workerURLs, w.url)
		}
		for _, u := range workerURLs {
			peerByURL[u] = cluster.NewPeerCache(workerURLs, u, cluster.PeerCacheConfig{Client: client})
		}
	}
	var buf bytes.Buffer
	httpOp := func(ctx context.Context, span string, op int, url string, r *request) error {
		sp := tr.begin(span, op)
		code, err := post(ctx, client, url, r.body, &buf)
		sp.end()
		if err != nil {
			return err
		}
		// The load generator's own share: the same checks every timed op pays.
		sp = tr.begin("client.check", op)
		ok := rc.chk.check(r, true, code, buf.Bytes())
		sp.end()
		if !ok {
			return fmt.Errorf("%s: response failed its checks (HTTP %d)", span, code)
		}
		return nil
	}
	return func(ctx context.Context, op int, r *request, a *acc) error {
		root := tr.begin("op", op)
		defer root.end()
		_, _, _, key, err := resolveSpans(tr, op, r)
		if err != nil {
			return err
		}
		fp := r.req.Fingerprint()
		svc, url := (*service.Service)(nil), e.url
		if e.fleet != nil {
			sp := tr.begin("cluster.ring_owner", op)
			for i := 0; i < ringOwnerCalls; i++ {
				url = e.fleet.coord.Ring().Owner(fp)
			}
			sp.end()
			svc = svcByURL[url]
		} else {
			svc = e.d.svc
		}
		sp := tr.begin("service.hit", op)
		j, err := svc.Submit(r.req)
		if err == nil {
			<-j.Done()
		}
		sp.end()
		if err != nil {
			return err
		}
		st := j.Snapshot()
		if st.State != service.StateDone || !st.CacheHit {
			return fmt.Errorf("Submit on a warm key: state %s cache_hit %t", st.State, st.CacheHit)
		}
		a.reportBytes += len(st.Report)
		if err := httpOp(ctx, "service.http_op", op, url, r); err != nil || e.fleet == nil {
			return err
		}
		if err := httpOp(ctx, "cluster.coord_op", op, e.url, r); err != nil {
			return err
		}
		// Peer fill as a non-owner would do it for this owner-warm key.
		other := workerURLs[0]
		if other == url {
			other = workerURLs[1]
		}
		sp = tr.begin("cluster.peer_fill", op)
		data, ok := peerByURL[other].Fill(ctx, fp, key)
		sp.end()
		if !ok || len(data) == 0 {
			return fmt.Errorf("peer fill from %s missed an owner-warm key", other)
		}
		return nil
	}, func() error { tport.CloseIdleConnections(); return nil }, nil
}

// planUpload is the durable path: decode the upload, derive its key, and
// perform the store traffic of one request — accept, put (write side) or
// get (read side), tombstone — against a bench-owned store with the
// daemon's fsync policy. The write side also analyses the kernel, as a
// miss does; the read side finds the reports already on disk.
func planUpload(e *daemonEnv, rc *runCtx, tr *tracer, reqs []*request) (opFunc, func() error, error) {
	dir, err := rc.dataDir(e.name + "-traced")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir, store.Options{FsyncPolicy: benchFsync})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	opts := scout.Options{DryRun: true, Sim: sim.Config{Workers: 1}}
	resolve := func(tr *tracer, op int, r *request) (*sass.Kernel, gpu.Arch, string, error) {
		arch, err := gpu.ByName(r.req.Arch)
		if err != nil {
			return nil, arch, "", err
		}
		var k *sass.Kernel
		if r.req.SASS != "" {
			sp := tr.begin("sass.parse", op)
			k, err = sass.Parse(r.req.SASS)
			sp.end()
		} else {
			sp := tr.begin("cubin.decode", op)
			var bin *cubin.Binary
			if bin, err = cubin.Decode(r.req.Cubin); err == nil {
				k = bin.Kernels[0]
			}
			sp.end()
		}
		if err != nil {
			return nil, arch, "", err
		}
		return k, arch, keySpans(tr, op, k, arch, "static", opts, r), nil
	}
	report := func(ctx context.Context, tr *tracer, op int, r *request, k *sass.Kernel, arch gpu.Arch, a *acc) ([]byte, error) {
		rep, err := staticSpans(ctx, tr, op, k, arch, opts, nil)
		if err != nil {
			return nil, err
		}
		if rep.Kernel != r.kernel {
			return nil, fmt.Errorf("report is for %s", rep.Kernel)
		}
		return marshalSpan(tr, op, rep, a)
	}
	reads := e.wantHit
	if reads {
		// Set-up, outside the pass timer and any span: the reports the
		// read side will find.
		for _, r := range reqs {
			k, arch, key, err := resolve(nil, 0, r)
			if err != nil {
				return nil, nil, err
			}
			data, err := report(context.Background(), nil, 0, r, k, arch, &acc{})
			if err == nil {
				err = st.PutReport(key, r.req.Fingerprint(), data)
			}
			if err != nil {
				return nil, nil, err
			}
		}
	}
	op := func(ctx context.Context, op int, r *request, a *acc) error {
		root := tr.begin("op", op)
		defer root.end()
		k, arch, key, err := resolve(tr, op, r)
		if err != nil {
			return err
		}
		id, fp := fmt.Sprintf("t%08d", op), r.req.Fingerprint()
		sp := tr.begin("store.append_accept", op)
		err = st.AppendAccept(id, fp, r.body)
		sp.end()
		if err != nil {
			return err
		}
		if reads {
			sp = tr.begin("store.get_report", op)
			data, ok := st.GetReport(key)
			sp.end()
			if !ok {
				return fmt.Errorf("GetReport missed a stored key")
			}
			a.reportBytes += len(data)
		} else {
			data, err := report(ctx, tr, op, r, k, arch, a)
			if err != nil {
				return err
			}
			sp = tr.begin("store.put_report", op)
			err = st.PutReport(key, fp, data)
			sp.end()
			if err != nil {
				return err
			}
		}
		sp = tr.begin("store.append_tombstone", op)
		err = st.AppendTombstone(id, "done")
		sp.end()
		return err
	}
	done := func() error {
		defer os.RemoveAll(dir)
		if err := st.Close(); err != nil {
			return err
		}
		// Reopen what the pass left behind: index scan + journal replay.
		sp := tr.begin("store.open", 0)
		st2, err := store.Open(dir, store.Options{FsyncPolicy: benchFsync})
		sp.end()
		if err != nil {
			return err
		}
		return st2.Close()
	}
	return op, done, nil
}
