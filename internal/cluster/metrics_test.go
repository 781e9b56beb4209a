package cluster

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gpuscout/internal/service"
	"gpuscout/internal/store"
)

// exposedFamilies reduces a /metrics exposition to one line per family,
// "<type> <name> <label sets> | <help>", sorted: the label sets are the
// distinct series label strings (a histogram's le dropped), sorted.
// Counter series must read 0 — the scrape is of a fresh process — and
// other values are not compared.
func exposedFamilies(t *testing.T, exposition string) []string {
	t.Helper()
	type fam struct {
		typ, help string
		sets      []string
	}
	fams := map[string]*fam{}
	get := func(name string) *fam {
		if fams[name] == nil {
			fams[name] = &fam{}
		}
		return fams[name]
	}
	var cur string
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			get(name).typ, cur = typ, name
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		labels := ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, labels = series[:i], series[i:]
		}
		f := fams[cur]
		if f == nil || !strings.HasPrefix(series, cur) {
			t.Fatalf("series %q outside its family's TYPE block", line)
		}
		if f.typ == "counter" && value != "0" {
			t.Errorf("fresh counter %s%s reads %s, want 0", series, labels, value)
		}
		if f.typ == "histogram" {
			if i := strings.Index(labels, `le="`); i >= 0 {
				j := i + 4 + strings.IndexByte(labels[i+4:], '"') + 1
				labels = strings.TrimSuffix(strings.TrimSuffix(labels[:i], ",")+labels[j:], "{}")
			}
		}
		if !slices.Contains(f.sets, labels) {
			f.sets = append(f.sets, labels)
		}
	}
	var out []string
	for name, f := range fams {
		slices.Sort(f.sets)
		line := strings.Join(append([]string{f.typ, name}, f.sets...), " ")
		out = append(out, strings.TrimSpace(line)+" | "+f.help)
	}
	slices.Sort(out)
	return out
}

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsFamiliesUnchanged pins what a fresh worker — with a store
// and a peer fill, so every optional family registers — and a fresh
// coordinator expose on /metrics: each family's type, help text and
// label sets. Family order is free; a family added, dropped, renamed or
// relabelled changes a dashboard, so it changes this table on purpose.
func TestMetricsFamiliesUnchanged(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{FsyncPolicy: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc, err := service.New(service.Config{
		Workers: 1,
		Store:   st,
		PeerFill: func(context.Context, string, string) ([]byte, bool) {
			return nil, false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	coord, err := New(Config{Replicas: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for _, tc := range []struct {
		role string
		h    http.Handler
		want string
	}{
		{"worker", svc.Handler(), workerFamilies},
		{"coordinator", coord.Handler(), coordinatorFamilies},
	} {
		got := exposedFamilies(t, scrape(t, tc.h))
		want := strings.Split(strings.TrimSpace(tc.want), "\n")
		slices.Sort(want)
		for _, w := range want {
			if !slices.Contains(got, w) {
				t.Errorf("%s: family missing or changed:\n  want %s", tc.role, w)
			}
		}
		for _, g := range got {
			if !slices.Contains(want, g) {
				t.Errorf("%s: family added or changed:\n  got  %s", tc.role, g)
			}
		}
		if t.Failed() {
			t.Logf("%s exposes:\n%s", tc.role, strings.Join(got, "\n"))
		}
	}
}

// The families a worker and a coordinator exposed before their
// instruments were declared as tables.
const workerFamilies = `
counter gpuscoutd_batch_deduped_total | Batch items that shared a fingerprint with an earlier item in the same batch and were folded into its job before enqueue.
counter gpuscoutd_batch_items_total | Analysis requests carried inside batch bodies.
counter gpuscoutd_batch_requests_total | POST /v1/analyze/batch requests accepted.
counter gpuscoutd_cache_hits_total | Analyses served from the content-addressed report cache.
counter gpuscoutd_cache_misses_total | Analyses that had to run the pipeline.
counter gpuscoutd_degraded_reports_total {kind="scout_error"} {kind="scout_panic"} {kind="scout_timeout"} {kind="sim_error"} {kind="sim_panic"} {kind="sim_timeout"} {kind="verify_error"} {kind="verify_panic"} {kind="verify_timeout"} | Reports shipped with a degradation ledger, by stage_kind.
counter gpuscoutd_jobs_finished_total {state="cancelled"} {state="done"} {state="failed"} {state="timeout"} | Jobs finished, by terminal state.
counter gpuscoutd_peer_cache_serves_total | Cache entries served to peer replicas via /internal/v1/cache.
counter gpuscoutd_peer_fill_hits_total | Local cache misses served by a peer replica's cache (two-tier fill).
counter gpuscoutd_peer_fill_misses_total | Peer cache-fill attempts that fell through to local simulation.
counter gpuscoutd_quarantined_total | Submissions rejected because the input fingerprint is quarantined.
counter gpuscoutd_recovered_jobs_total | Journaled jobs re-enqueued by startup recovery.
counter gpuscoutd_retries_total | Job attempts retried after a transient stage failure.
counter gpuscoutd_stage_panics_total {stage="parse"} {stage="scout"} {stage="sim"} {stage="verify"} | Panics recovered inside the pipeline, by stage.
counter gpuscoutd_store_hits_total | Memory-cache misses served whole from the persistent report store (warm restarts, rebalanced keys).
counter gpuscoutd_store_misses_total | Memory-cache misses that also missed the persistent report store.
counter gpuscoutd_verifications_total {verdict="confirmed"} {verdict="neutral"} {verdict="refuted"} | Counterfactually verified recommendations, by measured verdict.
gauge gpuscoutd_cache_bytes | Total payload bytes held by the in-memory report cache.
gauge gpuscoutd_cache_entries | Reports currently cached.
gauge gpuscoutd_go_gc_cycles_total | Completed GC cycles since the process started.
gauge gpuscoutd_go_gc_pause_seconds_total | Wall time the GC has stopped the world (pause CPU time over GOMAXPROCS).
gauge gpuscoutd_go_goroutines | Goroutines that currently exist.
gauge gpuscoutd_go_heap_inuse_bytes | Bytes in in-use heap spans: objects plus fragmentation.
gauge gpuscoutd_jobs_inflight | Jobs currently executing on the worker pool.
gauge gpuscoutd_quarantine_open | Input fingerprints currently held by the circuit breaker.
gauge gpuscoutd_queue_depth | Jobs accepted and waiting for a worker.
gauge gpuscoutd_sim_workers_default | Per-launch simulation parallelism applied to jobs that don't set sim_workers.
gauge gpuscoutd_store_corrupt_quarantined | Report entries quarantined to corrupt/ since the store opened.
gauge gpuscoutd_store_journal_lag | Journal records beyond the live job set — the garbage the next compaction reclaims.
gauge gpuscoutd_store_journal_records | Frames in the write-ahead job journal.
gauge gpuscoutd_store_report_bytes | Bytes held by the persistent report store.
gauge gpuscoutd_store_report_entries | Reports held by the persistent report store.
histogram gpuscoutd_sim_speedup | Achieved parallel speedup per simulated launch (aggregate per-SM time over wall time).
histogram gpuscoutd_sim_wall_seconds | Host wall time of each simulated launch's SM phase.
histogram gpuscoutd_stage_seconds {stage="analyze"} {stage="build"} {stage="encode"} {stage="sweep"} {stage="verify"} | Per-stage job latency: build (request resolution plus, on a miss, lowering), analyze (pipeline), verify (counterfactual re-runs), sweep (perturbation re-simulation), encode (report JSON).
`

const coordinatorFamilies = `
counter gpuscoutd_cluster_affinity_breaks_total | Requests served by a replica other than their first-preference ring owner.
counter gpuscoutd_cluster_batch_deduped_total | Batch items folded into an earlier item's slot before fan-out (shared fingerprint).
counter gpuscoutd_cluster_batch_items_total | Analysis requests carried inside coordinator batch bodies.
counter gpuscoutd_cluster_batch_requests_total | POST /v1/analyze/batch requests accepted by the coordinator.
counter gpuscoutd_cluster_batch_reroutes_total | Batch items re-sent to another replica after a partial sub-batch failure.
counter gpuscoutd_cluster_failovers_total | Proxy attempts abandoned for a dead or refusing replica and retried on the next ring owner.
counter gpuscoutd_cluster_proxied_total {replica="http://127.0.0.1:1"} {replica="http://127.0.0.1:2"} | Requests proxied to each replica.
counter gpuscoutd_cluster_shed_total | Requests the coordinator answered 429/503 itself because no replica could take them.
gauge gpuscoutd_cluster_replicas | Replicas in the configured member list.
gauge gpuscoutd_cluster_replicas_up | Replicas currently routable (last /readyz probe answered 200).
gauge gpuscoutd_go_gc_cycles_total | Completed GC cycles since the process started.
gauge gpuscoutd_go_gc_pause_seconds_total | Wall time the GC has stopped the world (pause CPU time over GOMAXPROCS).
gauge gpuscoutd_go_goroutines | Goroutines that currently exist.
gauge gpuscoutd_go_heap_inuse_bytes | Bytes in in-use heap spans: objects plus fragmentation.
`
