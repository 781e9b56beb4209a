// Command bench is the repository's benchmark: seven request-path
// workloads against the real public entry points (service and cluster
// handlers over loopback HTTP, sim.Launch, store.Open), every output
// checked, end-to-end metrics from an untraced run and per-layer metrics
// from a traced pass. See README.md in this directory.
//
//	bash bench/run.sh --workload warm_zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the host
// record the numbers belong to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// A run sets the workload up repeatedly — until setupBudget is spent or
// maxSetupReps are done — and reports the median as setup_s: millisecond
// set-ups get many repetitions, multi-second ones are not paid thrice.
// The last instance is the one measured.
const (
	setupBudget  = 2 * time.Second
	maxSetupReps = 25
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the generated op sequences; the program under test only sees the generated requests")
		seconds  = flag.Int("seconds", 10, "how long the timed loop measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1: Chrome trace-event file to write (default <scratch>/trace-<workload>.json)")
		scratch  = flag.String("scratch", ".bench_build", "directory for data dirs and trace files")
		list     = flag.Bool("list", false, "print the workload names and exit")
	)
	flag.Parse()
	if *list {
		for _, w := range workloadDefs {
			fmt.Printf("%-14s %s\n", w.name, w.why)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	out, host, err := run(w, options{
		seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace != 0, traceOut: *traceOut, scratch: *scratch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	emit(host)
	emit(out)
	if !out.Correct {
		os.Exit(1)
	}
}

func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type options struct {
	seed     int64
	budget   time.Duration
	trace    bool
	traceOut string
	scratch  string
	smoke    bool
}

// run executes one workload once: set-ups, then the untraced measurement
// or the traced pass, then the output checks' verdict.
func run(w workloadDef, o options) (output, hostRecord, error) {
	// Load model: callers of this system wait for their report, so every
	// workload is a closed loop of C clients against C daemon workers on C
	// processors.
	clients := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(clients)
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return output{}, hostRecord{}, err
	}
	// Flush what earlier processes left dirty, and at the end what this one
	// did: a run's file writes must not queue behind its predecessor's
	// deleted data directory still draining through the filesystem journal.
	syscall.Sync()
	defer syscall.Sync()
	rc := &runCtx{seed: o.seed, budget: o.budget, clients: clients, scratch: o.scratch, chk: newChecker(), smoke: o.smoke}
	host := readHost(o.scratch)
	host.Workload, host.Seed, host.Seconds, host.Trace = w.name, o.seed, int(o.budget/time.Second), o.trace
	host.Clients = clients

	reps := maxSetupReps
	if o.smoke {
		reps = 1
	}
	var e env
	var setups []float64
	// Set-up time is in reference seconds too: a slice either side of
	// every set-up (refclock.go).
	before := refSlice(w.threads(clients))
	for t0 := time.Now(); len(setups) == 0 || (time.Since(t0) < setupBudget && len(setups) < reps); {
		if e != nil {
			if err := e.close(); err != nil {
				return output{}, host, fmt.Errorf("%s: tear-down: %w", w.name, err)
			}
		}
		// Each set-up starts from a fresh checker: first responses from a
		// previous instance would otherwise turn its misses into "repeats".
		rc.chk = carryFailures(rc.chk)
		t := time.Now()
		var err error
		if e, err = w.setup(rc); err != nil {
			return output{}, host, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		wall := time.Since(t)
		after := refSlice(w.threads(clients))
		setups = append(setups, refScale(wall, before, after).Seconds())
		before = after
	}
	defer e.close()
	host.SetupReps = len(setups)

	out := output{Metrics: map[string]metricValue{}}
	if !o.trace {
		// Memory is measured over the timed phase alone: hand the set-up's
		// garbage back to the OS first.
		debug.FreeOSMemory()
		stopRSS := watchRSS()
		m, err := e.measure(rc)
		peakRSS := stopRSS()
		if err != nil {
			return output{}, host, err
		}
		out.Attempted = m.attempted
		host.HostSpeed = m.hostSpeed
		fmt.Fprintf(os.Stderr, "bench: %s: host speed %.3f reference seconds per wall second; %.4g ops per wall second\n",
			w.name, m.hostSpeed, m.opsPerS*m.hostSpeed)
		vals := map[string]float64{
			"ops_per_s": m.opsPerS, "op_ms_p50": m.opMsP50, "peak_rss_mb": peakRSS, "setup_s": median(setups),
		}
		for _, d := range endToEnd {
			out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	} else {
		tr := newTracer()
		vals, err := e.layers(rc, tr)
		if err != nil {
			return output{}, host, err
		}
		out.Attempted = int(vals["client.samples"])
		for _, d := range perLayer {
			out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		path := o.traceOut
		if path == "" {
			path = filepath.Join(o.scratch, "trace-"+w.name+".json")
		}
		if err := tr.writeChrome(path, host); err != nil {
			return output{}, host, err
		}
	}
	out.Failed = int(rc.chk.failed.Load())
	out.Attempted = max(out.Attempted, out.Failed, 1)
	out.Correct = out.Failed == 0
	for _, msg := range rc.chk.firstErr {
		fmt.Fprintln(os.Stderr, "bench: FAILED CHECK:", msg)
	}
	return out, host, nil
}

// carryFailures starts a fresh checker that keeps the old one's tally.
func carryFailures(old *checker) *checker {
	c := newChecker()
	c.failed.Store(old.failed.Load())
	c.shed.Store(old.shed.Load())
	c.firstErr = old.firstErr
	return c
}
