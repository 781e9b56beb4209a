// Command gpuscoutd is the long-lived GPUscout analysis service: the
// one-shot CLI's pipeline behind an HTTP API with a bounded job queue,
// a worker pool, a content-addressed report cache, and Prometheus-format
// metrics. Stdlib only.
//
// It runs in one of three modes:
//
//	standalone (default)  one self-contained daemon
//	worker                a cluster replica: standalone + peer cache-fill
//	coordinator           routes /v1/analyze to worker replicas by
//	                      consistent hashing on the input fingerprint
//
//	gpuscoutd -addr :8090 -workers 4 -queue 64 -cache 256
//
//	# a three-replica cluster on one host
//	gpuscoutd -mode worker -addr :8091 -self http://127.0.0.1:8091 \
//	          -replicas http://127.0.0.1:8091,http://127.0.0.1:8092,http://127.0.0.1:8093 &
//	...(8092, 8093 likewise)...
//	gpuscoutd -mode coordinator -addr :8090 \
//	          -replicas http://127.0.0.1:8091,http://127.0.0.1:8092,http://127.0.0.1:8093
//
//	curl -s localhost:8090/v1/workloads
//	curl -s -X POST localhost:8090/v1/analyze -d '{"workload":"sgemm_naive","scale":128}'
//	curl -s -X POST localhost:8090/v1/analyze/batch -d '{"requests":[{"workload":"jacobi_naive"},{"workload":"jacobi_naive"}]}'
//	curl -s localhost:8090/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gpuscout/internal/cluster"
	"gpuscout/internal/service"
	"gpuscout/internal/store"
)

// options is everything the command line decides, each flag bound
// straight to the package config field it sets. -max-upload, -max-batch
// and -replicas mean the same to a worker and a coordinator.
type options struct {
	addr, dataDir, self string
	pprof               string // net/http/pprof listen address; "" = off
	version             bool
	svc                 service.Config // svc.Mode is the process role
	store               store.Options
	coord               cluster.Config
	peer                cluster.PeerCacheConfig
}

// parseFlags is the flag table, split from main so a test can hold its
// defaults against the packages' own.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("gpuscoutd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":8090", "listen address")
	fs.StringVar(&o.svc.Mode, "mode", "standalone", "process role: standalone, worker (replica with peer cache-fill), or coordinator")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof (/debug/pprof/) on this address, a listener of its own (empty = off)")
	fs.IntVar(&o.svc.Workers, "workers", 0, "concurrent analysis workers (0 = #CPUs, capped at 8)")
	fs.IntVar(&o.svc.QueueDepth, "queue", 64, "bounded job-queue depth (full queue => 429)")
	fs.IntVar(&o.svc.CacheEntries, "cache", 256, "report-cache capacity in entries (negative disables)")
	fs.DurationVar(&o.svc.DefaultTimeout, "timeout", 2*time.Minute, "default per-job timeout")
	fs.Int64Var(&o.svc.MaxUploadBytes, "max-upload", 8<<20, "max request body bytes (SASS/cubin uploads)")
	fs.IntVar(&o.svc.MaxBatchItems, "max-batch", 4096, "max requests per /v1/analyze/batch body")
	fs.IntVar(&o.svc.MaxJobsRetained, "retained-jobs", 1024, "finished jobs kept for GET /v1/jobs/{id}")
	fs.IntVar(&o.svc.SimWorkers, "sim-workers", 1, "default per-launch simulation parallelism (sampled SMs simulated concurrently); jobs may override via sim_workers")
	fs.IntVar(&o.svc.RetryAttempts, "retry-attempts", 2, "max execution attempts per job for transient failures (1 disables retry)")
	fs.DurationVar(&o.svc.RetryBackoff, "retry-backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, capped, jittered)")
	fs.IntVar(&o.svc.QuarantineAfter, "quarantine-after", 2, "consecutive failures before an input is quarantined (negative disables)")
	fs.DurationVar(&o.svc.QuarantineCooldown, "quarantine-cooldown", 30*time.Second, "how long a quarantined input stays rejected before a probe is admitted")

	fs.StringVar(&o.dataDir, "data-dir", "", "crash-safe persistence directory: write-ahead job journal, persistent report store, durable breaker state (empty = in-memory only)")
	fs.Func("fsync", "journal/report flush discipline: always (the safe default), interval, or never",
		func(s string) (err error) { o.store.FsyncPolicy, err = store.ParseFsyncPolicy(s); return err })
	fs.DurationVar(&o.store.FsyncInterval, "fsync-interval", 100*time.Millisecond, "journal flush period under -fsync interval")
	fs.Int64Var(&o.store.MaxBytes, "store-max-bytes", 1<<30, "persistent report store byte bound; least-recently-used entries are evicted past it (negative = unlimited)")
	fs.Int64Var(&o.svc.CacheMaxBytes, "cache-max-bytes", 0, "in-memory report cache byte bound on top of -cache entries (0 = entries-only)")

	fs.Func("replicas", "comma-separated replica base URLs — the cluster's static member list (worker and coordinator modes)",
		func(s string) error { o.coord.Replicas = splitList(s); return nil })
	fs.StringVar(&o.self, "self", "", "this worker's own advertised base URL, as it appears in -replicas (worker mode)")
	fs.DurationVar(&o.coord.HealthInterval, "health-interval", 2*time.Second, "coordinator /readyz poll period per replica")
	fs.DurationVar(&o.peer.Timeout, "peer-timeout", 750*time.Millisecond, "worker peer cache-fill budget before falling back to local simulation")
	fs.DurationVar(&o.coord.ProxyTimeout, "proxy-timeout", 5*time.Minute, "coordinator per-attempt proxy timeout")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text
	o.coord.MaxUploadBytes, o.coord.MaxBatchItems = o.svc.MaxUploadBytes, o.svc.MaxBatchItems

	switch o.svc.Mode {
	case "standalone", "coordinator":
	case "worker":
		if len(o.coord.Replicas) == 0 || o.self == "" {
			return nil, errors.New("-mode worker needs -replicas and -self")
		}
	default:
		return nil, fmt.Errorf("unknown -mode %q (want standalone, worker, or coordinator)", o.svc.Mode)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuscoutd:", err)
		os.Exit(2)
	}
	if o.version {
		fmt.Printf("gpuscoutd %s (%s, %s/%s)\n", service.Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	if o.pprof != "" {
		go func() {
			log.Printf("gpuscoutd: pprof listening on %s", o.pprof)
			if err := http.ListenAndServe(o.pprof, pprofHandler()); err != nil {
				log.Printf("gpuscoutd: pprof: %v", err)
			}
		}()
	}
	if o.svc.Mode == "coordinator" {
		coord, err := cluster.New(o.coord)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpuscoutd:", err)
			os.Exit(2)
		}
		coord.Start() // one synchronous health sweep before the proxy serves
		serve(o.addr, o.svc.Mode, coord.Handler(), coord.BeginShutdown, coord.Close)
		return
	}

	// Durable state: accepted jobs survive a crash (write-ahead journal),
	// computed reports survive a restart (content-addressed disk store),
	// and quarantined fingerprints stay quarantined. Worker replicas warm
	// from disk before asking peers.
	if o.dataDir != "" {
		if o.svc.Store, err = store.Open(o.dataDir, o.store); err != nil {
			fmt.Fprintln(os.Stderr, "gpuscoutd:", err)
			os.Exit(1)
		}
	}
	if o.svc.Mode == "worker" {
		o.svc.PeerFill = cluster.NewPeerCache(o.coord.Replicas, strings.TrimRight(o.self, "/"), o.peer).Fill
	}

	svc, err := service.New(o.svc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuscoutd:", err)
		os.Exit(1)
	}
	closeCore := func() {
		svc.Close()
		if st := o.svc.Store; st != nil {
			if err := st.Close(); err != nil {
				log.Printf("gpuscoutd: close data dir: %v", err)
			}
		}
	}
	serve(o.addr, o.svc.Mode, svc.Handler(), svc.BeginShutdown, closeCore)
}

// serve runs the HTTP server with the shared graceful-shutdown order:
// flip /readyz to 503 so load balancers stop routing, stop accepting
// connections, then drain the core.
func serve(addr, mode string, h http.Handler, beginShutdown, closeCore func()) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	idle := make(chan struct{})
	go func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		log.Print("gpuscoutd: shutting down")
		beginShutdown()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("gpuscoutd: shutdown: %v", err)
		}
		closeCore()
		close(idle)
	}()

	log.Printf("gpuscoutd: %s %s listening on %s", mode, service.Version, addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gpuscoutd:", err)
		os.Exit(1)
	}
	<-idle
}

// pprofHandler serves the runtime profiles under /debug/pprof/. It is
// mounted only on the -pprof listener: the API handlers are their own
// muxes, so the API address answers 404 there.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// splitList parses a comma-separated URL list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(strings.TrimRight(part, "/")); p != "" {
			out = append(out, p)
		}
	}
	return out
}
