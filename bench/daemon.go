package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"gpuscout/internal/cluster"
	"gpuscout/internal/service"
	"gpuscout/internal/store"
)

// daemon is one in-process gpuscoutd: the real service behind its real
// HTTP handler on a loopback listener, optionally over a data directory.
type daemon struct {
	svc *service.Service
	srv *httptest.Server
	st  *store.Store
	url string
}

// benchFsync is the flush policy of every store the benchmark opens:
// gpuscoutd's -fsync never (the OS flushes when it likes). The daemon's
// default, fsync=always, puts two to three inline fsyncs into every op,
// and the reference host's shared virtual disk answers those at anything
// from 200 to 2600 per second from one second to the next; fsync=interval
// still flushes under the store's lock every 100 ms (and ext4 then writes
// out every new report file with it). Either way the store workloads
// would gate on the neighbours' I/O, not on this program. With the flushes
// gone they measure the store's own work — framing, journal and report
// file writes, renames, reads, checksums, compaction — which is what a
// change to this repository can move. README.md has the numbers.
const benchFsync = store.FsyncNever

// startDaemon opens dataDir (when set) under benchFsync, starts the
// service and serves its handler. l may carry a pre-bound listener (the
// cluster needs every replica URL before any replica starts).
func startDaemon(cfg service.Config, dataDir string, l net.Listener) (*daemon, error) {
	d := &daemon{}
	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{FsyncPolicy: benchFsync})
		if err != nil {
			return nil, err
		}
		d.st, cfg.Store = st, st
	}
	svc, err := service.New(cfg)
	if err != nil {
		if d.st != nil {
			d.st.Close()
		}
		return nil, err
	}
	d.svc = svc
	d.srv = httptest.NewUnstartedServer(svc.Handler())
	if l != nil {
		d.srv.Listener.Close()
		d.srv.Listener = l
	}
	d.srv.Start()
	d.url = d.srv.URL
	return d, nil
}

// stop shuts the daemon down in the order gpuscoutd does: HTTP, service,
// then the store.
func (d *daemon) stop() error {
	d.svc.BeginShutdown()
	d.srv.Close()
	d.svc.Close()
	if d.st != nil {
		return d.st.Close()
	}
	return nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not 200 after 30s (last error: %v)", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleet is a coordinator in front of worker replicas, all in-process on
// loopback, each worker with peer cache-fill wired the way gpuscoutd
// -mode worker wires it.
type fleet struct {
	workers []*daemon
	coord   *cluster.Coordinator
	srv     *httptest.Server
	url     string
}

func startFleet(replicas int, cfg service.Config) (*fleet, error) {
	listeners := make([]net.Listener, replicas)
	urls := make([]string, replicas)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	f := &fleet{}
	for i := range listeners {
		wcfg := cfg
		wcfg.Mode = "worker"
		wcfg.PeerFill = cluster.NewPeerCache(urls, urls[i], cluster.PeerCacheConfig{}).Fill
		d, err := startDaemon(wcfg, "", listeners[i])
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, d)
	}
	coord, err := cluster.New(cluster.Config{Replicas: urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	coord.Start()
	f.coord = coord
	f.srv = httptest.NewServer(coord.Handler())
	f.url = f.srv.URL
	return f, nil
}

func (f *fleet) stop() {
	if f.srv != nil {
		f.srv.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, d := range f.workers {
		d.stop()
	}
}

// scrape reads a /metrics page into series -> value. Labelled series keep
// their label text (`name{a="b"}`) as part of the key.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] += v
		}
	}
	return out, sc.Err()
}

// sumPrefix adds every series whose name (before any label) is `name`.
func sumPrefix(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// scrapeAll sums the /metrics pages of several daemons.
func scrapeAll(urls ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}
