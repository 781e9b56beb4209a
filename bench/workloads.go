package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"gpuscout/internal/gpu"
	"gpuscout/internal/service"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// runCtx carries one invocation's arguments to the workload code.
type runCtx struct {
	seed    int64
	budget  time.Duration // --seconds
	clients int           // C = min(nproc, 4): clients, daemon workers and GOMAXPROCS
	scratch string        // directory for data dirs, inside the checkout
	chk     *checker
	// smoke shrinks every sequence and corpus so the whole suite runs in
	// a few seconds (bench_test.go); numbers from a smoke run mean nothing.
	smoke bool
}

// measured is what an untraced run yields.
type measured struct {
	opsPerS   float64 // per reference second
	opMsP50   float64 // reference milliseconds
	hostSpeed float64 // reference seconds per wall second over the timed phase
	attempted int
}

// env is one set-up instance of a workload: servers started, corpus
// built, caches warmed. measure is the untraced timed run behind the
// end-to-end metrics; layers is the traced pass behind the per-layer ones.
type env interface {
	measure(rc *runCtx) (measured, error)
	layers(rc *runCtx, tr *tracer) (map[string]float64, error)
	close() error
}

type workloadDef struct {
	name  string
	why   string
	setup func(rc *runCtx) (env, error)
	// single marks a workload that keeps one processor busy, not C: its
	// reference slices run on one goroutine (refclock.go).
	single bool
}

// threads is how many processors the workload keeps busy given C clients.
func (w workloadDef) threads(clients int) int {
	if w.single {
		return 1
	}
	return clients
}

// workloadDefs is the benchmark's workload table; BENCHMARK.json repeats
// the names and reasons and bench_test.go holds the two equal.
var workloadDefs = []workloadDef{
	{"sim_large", "Library-level sim.Launch (Workers=1, SampleSMs=8) on an issue-bound, a memory-bound and a stall-bound kernel: the steady-state simulator loop; build, detectors and daemon do nothing.", setupSimLarge, true},
	{"cold_plain", "Daemon, cache off, C clients, shuffled passes over 23 workloads x 2 archs x {plain, stall_slices}: the whole pipeline on many small launches; cache, store and cluster do nothing.", setupColdPlain, false},
	{"cold_swept", "Same daemon, ONE client, verify+sensitivity+stall_slices requests: ~90% advisor re-execution (14 serial re-simulations); one client because fan-out is a latency gain a saturated loop hides.", setupColdSwept, true},
	{"warm_zipf", "Daemon with 92 pre-warmed keys, C clients, Zipf(1.1) traffic, every answer a memory-cache hit: the simulator does nothing, the service hit path (resolve, key, LRU, re-encode, HTTP) everything.", setupWarmZipf, false},
	{"durable_write", "Daemon over store.Open(fsync=never), cache off, unique static SASS/cubin uploads: journal accept + PutReport + tombstone; the only traffic where parse, decode, kernel view and detectors lead.", setupDurableWrite, false},
	{"durable_read", "The same store after a restart, every request a disk hit: journal accept + GetReport + tombstone. Paired with durable_write so a read gain paid for with write cost shows on one of the two.", setupDurableRead, false},
	{"cluster_zipf", "Coordinator + 3 workers with peer fill; warm_zipf's keys and Zipf stream sent through the coordinator, so the difference to warm_zipf is the cluster layer: fingerprint, ring, proxy, body copy.", setupClusterZipf, false},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled shrinks a count for smoke runs.
func (rc *runCtx) scaled(n, smoke int) int {
	if rc.smoke {
		return smoke
	}
	return n
}

// ---- sim_large ----

type simKernel struct {
	name  string
	scale int
	w     *workloads.Workload
}

type simLargeEnv struct {
	arch    gpu.Arch
	kernels []*simKernel
}

var simLargeCfg = sim.Config{Workers: 1, SampleSMs: 8}

func setupSimLarge(rc *runCtx) (env, error) {
	e := &simLargeEnv{arch: gpu.V100()}
	for _, k := range []*simKernel{
		{name: "sgemm_naive", scale: rc.scaled(192, 64)},    // issue-bound
		{name: "jacobi_naive", scale: rc.scaled(1024, 128)}, // memory-bound
		{name: "mixbench_sp_naive", scale: rc.scaled(1, 1)}, // stall-bound
	} {
		w, err := workloads.BuildArch(k.name, k.scale, e.arch)
		if err != nil {
			return nil, err
		}
		// One throw-away Prepare: a launch spec that cannot be prepared
		// should fail set-up, not the first timed round.
		if _, err := w.Prepare(sim.NewDevice(e.arch)); err != nil {
			return nil, err
		}
		k.w = w
		e.kernels = append(e.kernels, k)
	}
	return e, nil
}

// launch prepares a fresh device (the kernels update their output in
// place, so a reused device would fail verification), times the launch
// alone, and verifies the device afterwards.
func (e *simLargeEnv) launch(k *simKernel, cfg sim.Config, tr *tracer, op int) (*sim.Result, time.Duration, error) {
	dev := sim.NewDevice(e.arch)
	sp := tr.begin("workloads.prepare", op)
	run, err := k.w.Prepare(dev)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("sim.launch."+k.name, op)
	t := time.Now()
	res, err := sim.Launch(dev, run.Spec, cfg)
	wall := time.Since(t)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("workloads.verify", op)
	err = run.Verify(dev, res)
	sp.end()
	return res, wall, err
}

func (e *simLargeEnv) measure(rc *runCtx) (measured, error) {
	first := make([]*sim.Result, len(e.kernels))
	launchMs := make([][]float64, len(e.kernels)) // per kernel, reference milliseconds
	var rates []float64
	var wallSum, refSum time.Duration
	rounds := 0
	before := refSlice(1)
	for t0 := time.Now(); time.Since(t0) < rc.budget || rounds == 0; rounds++ {
		var roundRef time.Duration
		ok := true
		for i, k := range e.kernels {
			res, wall, err := e.launch(k, simLargeCfg, nil, rounds)
			switch {
			case err != nil:
				rc.chk.fail("sim_large %s round %d: %v", k.name, rounds, err)
				ok = false
			case first[i] == nil:
				first[i] = res
			case res.Cycles != first[i].Cycles || res.Counters.WarpInsts != first[i].Counters.WarpInsts:
				rc.chk.fail("sim_large %s round %d: simulated statistics changed between identical launches", k.name, rounds)
				ok = false
			}
			// A reference slice either side of every launch (refclock.go).
			after := refSlice(1)
			launchRef := refScale(wall, before, after)
			launchMs[i] = append(launchMs[i], msOf(launchRef))
			roundRef += launchRef
			wallSum += wall
			before = after
		}
		refSum += roundRef
		if ok {
			rates = append(rates, 1/roundRef.Seconds())
		}
	}
	// The op time of a round of three unlike kernels: the geometric mean of
	// their median launch times, so each kernel's relative change counts
	// the same whatever its length.
	p50 := 1.0
	for _, ms := range launchMs {
		p50 *= median(ms)
	}
	p50 = math.Pow(p50, 1/float64(len(launchMs)))
	return measured{opsPerS: median(rates), opMsP50: p50, hostSpeed: float64(refSum) / float64(wallSum), attempted: rounds}, nil
}

func (e *simLargeEnv) close() error { return nil }

// ---- daemon workloads ----

// daemonEnv is the shared shape of the six daemon workloads: a URL to
// load, a request corpus, and a loop description.
type daemonEnv struct {
	name     string
	d        *daemon // standalone daemon, or nil on cluster_zipf
	fleet    *fleet
	dataDir  string
	url      string
	reqs     []*request
	clients  int
	passLen  int  // > 0: measure whole passes
	wantHit  bool // what the timed phase must answer
	seq      func(rc *runCtx) []int
	restartS float64 // durable_read: store.Open -> first /readyz 200
	plan     tracePlan
}

const timedWindows = 5

func (e *daemonEnv) measure(rc *runCtx) (measured, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*rc.budget+30*time.Second)
	defer cancel()
	samples, clock := runLoop(ctx, loopSpec{
		url: e.url, clients: e.clients, reqs: e.reqs, seq: e.seq(rc),
		passLen: e.passLen, wantHit: e.wantHit, budget: rc.budget,
	}, rc.chk)
	if len(samples) == 0 {
		return measured{}, fmt.Errorf("%s: the loop ran no op", e.name)
	}
	var rates []float64
	if e.passLen > 0 {
		samples = samples[:len(samples)/e.passLen*e.passLen]
		rates = passRates(samples, e.passLen)
	} else {
		// Up to the budget, or to where the sequence ran out before it.
		total := clock.scale(min(rc.budget, clock.at[len(clock.at)-1]))
		rates = windowRates(samples, total, timedWindows)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: ops per reference second of each measured part: %.1f\n", e.name, rates)
	return measured{opsPerS: median(rates), opMsP50: quantile(okMillis(samples), 0.5), hostSpeed: clock.speed, attempted: len(samples)}, nil
}

func (e *daemonEnv) close() error {
	var err error
	if e.d != nil {
		err = e.d.stop()
	}
	if e.fleet != nil {
		e.fleet.stop()
	}
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
	return err
}

// prewarm sends every request once, expecting misses, so the timed phase
// starts with all keys resident (and their first responses on record).
func (e *daemonEnv) prewarm(rc *runCtx) error {
	seq := make([]int, len(e.reqs))
	for i := range seq {
		seq[i] = i
	}
	before := rc.chk.failed.Load()
	runLoop(context.Background(), loopSpec{url: e.url, clients: e.clients, reqs: e.reqs, seq: seq}, rc.chk)
	if n := rc.chk.failed.Load() - before; n > 0 {
		return fmt.Errorf("%s: %d of %d pre-warm requests failed: %v", e.name, n, len(seq), rc.chk.firstErr)
	}
	return nil
}

func (rc *runCtx) daemonConfig(cacheEntries int) service.Config {
	return service.Config{Workers: rc.clients, SimWorkers: 1, CacheEntries: cacheEntries}
}

func corpusNames(rc *runCtx) []string {
	if rc.smoke {
		return []string{"reduction_shfl", "transpose_naive", "spill_pressure"}
	}
	return workloads.Names()
}

func setupColdPlain(rc *runCtx) (env, error) {
	reqs, err := corpusRequests(corpusNames(rc), []variant{variantPlain, variantSlices})
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(rc.daemonConfig(-1), "", nil)
	if err != nil {
		return nil, err
	}
	return &daemonEnv{
		name: "cold_plain", d: d, url: d.url, reqs: reqs, clients: rc.clients, passLen: len(reqs),
		seq:  func(rc *runCtx) []int { return shuffledPasses(rc.seed, len(reqs), rc.scaled(64, 1)) },
		plan: tracePlan{loopOps: 92, pipelineOps: 92, build: planAnalyze},
	}, nil
}

func setupColdSwept(rc *runCtx) (env, error) {
	names := sweptNames()
	if rc.smoke {
		names = corpusNames(rc)[:2]
	}
	reqs, err := corpusRequests(names, []variant{variantSwept})
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(rc.daemonConfig(-1), "", nil)
	if err != nil {
		return nil, err
	}
	return &daemonEnv{
		name: "cold_swept", d: d, url: d.url, reqs: reqs, clients: 1, passLen: len(reqs),
		seq:  func(rc *runCtx) []int { return shuffledPasses(rc.seed, len(reqs), rc.scaled(16, 1)) },
		plan: tracePlan{loopOps: 10, pipelineOps: 36, build: planAnalyze},
	}, nil
}

// zipfOps bounds the Zipf sequences: more ops than any host serves in the
// longest allowed run, so the budget, not the sequence, ends the loop.
const zipfOps = 1 << 20

func setupWarmZipf(rc *runCtx) (env, error) {
	reqs, err := corpusRequests(corpusNames(rc), []variant{variantPlain, variantSlices})
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(rc.daemonConfig(0), "", nil)
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{
		name: "warm_zipf", d: d, url: d.url, reqs: reqs, clients: rc.clients, wantHit: true,
		seq:  func(rc *runCtx) []int { return zipfSequence(rc.seed, len(reqs), rc.scaled(zipfOps, 200)) },
		plan: tracePlan{loopOps: 2000, pipelineOps: 500, build: planHit},
	}
	if err := e.prewarm(rc); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func setupClusterZipf(rc *runCtx) (env, error) {
	reqs, err := corpusRequests(corpusNames(rc), []variant{variantPlain, variantSlices})
	if err != nil {
		return nil, err
	}
	f, err := startFleet(3, rc.daemonConfig(0))
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{
		name: "cluster_zipf", fleet: f, url: f.url, reqs: reqs, clients: rc.clients, wantHit: true,
		seq:  func(rc *runCtx) []int { return zipfSequence(rc.seed, len(reqs), rc.scaled(zipfOps, 200)) },
		plan: tracePlan{loopOps: 2000, pipelineOps: 500, build: planHit},
	}
	if err := e.prewarm(rc); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// Upload corpus sizes. durable_write needs more unique kernels than the
// run can consume; durable_read re-reads a fixed population.
const (
	writeUploads = 8000
	readUploads  = 500
)

func (rc *runCtx) dataDir(name string) (string, error) {
	return os.MkdirTemp(rc.scratch, name+"-")
}

func setupDurableWrite(rc *runCtx) (env, error) {
	reqs, err := uploadRequests(rc.seed, rc.scaled(writeUploads, 40), rc.clients)
	if err != nil {
		return nil, err
	}
	rc.chk.remember = false // every upload is unique: nothing ever repeats
	dir, err := rc.dataDir("durable_write")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(rc.daemonConfig(-1), dir, nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemonEnv{
		name: "durable_write", d: d, dataDir: dir, url: d.url, reqs: reqs, clients: rc.clients,
		seq: func(*runCtx) []int {
			seq := make([]int, len(reqs))
			for i := range seq {
				seq[i] = i
			}
			return seq
		},
		plan: tracePlan{loopOps: 400, pipelineOps: 200, build: planUpload},
	}, nil
}

func setupDurableRead(rc *runCtx) (env, error) {
	reqs, err := uploadRequests(rc.seed, rc.scaled(readUploads, 20), rc.clients)
	if err != nil {
		return nil, err
	}
	dir, err := rc.dataDir("durable_read")
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{
		name: "durable_read", dataDir: dir, reqs: reqs, clients: rc.clients, wantHit: true,
		seq:  func(rc *runCtx) []int { return shuffledPasses(rc.seed, len(reqs), rc.scaled(256, 2)) },
		plan: tracePlan{loopOps: 1000, pipelineOps: 200, build: planUpload},
	}
	// Populate through a first daemon life, then restart: the timed reads
	// run against a store that was opened from disk, as after a deploy.
	if e.d, err = startDaemon(rc.daemonConfig(-1), dir, nil); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.url = e.d.url
	if err := e.prewarm(rc); err != nil {
		e.close()
		return nil, err
	}
	if err := e.restart(rc); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// restart closes the daemon and its store and brings both back on the
// same data directory, timing store.Open -> first /readyz 200.
func (e *daemonEnv) restart(rc *runCtx) error {
	err := e.d.stop()
	e.d = nil
	if err != nil {
		return err
	}
	t := time.Now()
	d, err := startDaemon(rc.daemonConfig(-1), e.dataDir, nil)
	if err != nil {
		return err
	}
	e.d, e.url = d, d.url
	if err := waitReady(d.url); err != nil {
		return err
	}
	e.restartS = time.Since(t).Seconds()
	return nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
