package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gpuscout/internal/cluster"
	"gpuscout/internal/service"
	"gpuscout/internal/store"
)

// sameSettings compares the scalar settings of two config structs field
// by field (recursing into nested structs), skipping the named
// exceptions and whatever is not a setting: hooks, handles and lists.
// pkg may come from another package's unexported field, which
// reflection can read but not hand out.
func sameSettings(t *testing.T, path string, parsed, pkg reflect.Value, except map[string]bool) {
	t.Helper()
	for i := 0; i < parsed.NumField(); i++ {
		name := path + "." + parsed.Type().Field(i).Name
		p, d := parsed.Field(i), pkg.Field(i)
		switch p.Kind() {
		case reflect.Func, reflect.Pointer, reflect.Slice:
		case reflect.Struct:
			sameSettings(t, name, p, d, except)
		default:
			if !except[name] && !p.Equal(d) {
				t.Errorf("%s: flag default %v, package default %v", name, p, d)
			}
		}
	}
}

// TestFlagDefaultsArePackageDefaults: the flag table and each package's
// applyDefaults both write the defaults down. Parsing an empty command
// line must yield exactly the settings the package gives a zero config
// — which applyDefaults then leaves as they are — or `gpuscoutd` and
// `service.New(service.Config{})` are two different daemons. The
// package's side is read back out of an object built from the zero
// config.
func TestFlagDefaultsArePackageDefaults(t *testing.T) {
	o, err := parseFlags([]string{"-replicas", "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}

	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sameSettings(t, "service.Config", reflect.ValueOf(o.svc), reflect.ValueOf(svc).Elem().FieldByName("cfg"),
		map[string]bool{"service.Config.Workers": true}) // flag default 0 means "#CPUs"

	coord, err := cluster.New(cluster.Config{Replicas: o.coord.Replicas}) // never started, so nothing to close
	if err != nil {
		t.Fatal(err)
	}
	sameSettings(t, "cluster.Config", reflect.ValueOf(o.coord), reflect.ValueOf(coord).Elem().FieldByName("cfg"), nil)

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sameSettings(t, "store.Options", reflect.ValueOf(o.store), reflect.ValueOf(st).Elem().FieldByName("opts"),
		map[string]bool{"store.Options.CompactAfter": true}) // not a flag

	// The peer cache keeps its defaulted timeout in a field of its own.
	pc := cluster.NewPeerCache(o.coord.Replicas, "http://127.0.0.1:1", cluster.PeerCacheConfig{})
	if got := reflect.ValueOf(pc).Elem().FieldByName("timeout").Int(); got != int64(o.peer.Timeout) {
		t.Errorf("-peer-timeout default %v, package default %v", o.peer.Timeout, got)
	}
}

// TestParseFlags: bad role combinations are refused, and a flag lands in
// every config that shares it.
func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "leader"},
		{"-mode", "worker"}, // needs -replicas and -self
		{"-mode", "worker", "-replicas", "http://a"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	o, err := parseFlags([]string{"-mode", "worker", "-replicas", "http://a/, http://b", "-self", "http://a", "-max-upload", "99", "-fsync", "never"})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.coord.Replicas; len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Errorf("replicas = %q", got)
	}
	if o.svc.MaxUploadBytes != 99 || o.coord.MaxUploadBytes != 99 || o.store.FsyncPolicy != store.FsyncNever {
		t.Errorf("flags not bound: upload %d/%d fsync %v", o.svc.MaxUploadBytes, o.coord.MaxUploadBytes, o.store.FsyncPolicy)
	}
}

// TestPprofOnItsOwnListener: profiles are off unless -pprof names an
// address, are served by the handler that listener mounts, and never by
// the API handler of either role.
func TestPprofOnItsOwnListener(t *testing.T) {
	if o, _ := parseFlags(nil); o.pprof != "" {
		t.Errorf("-pprof defaults to %q, want off", o.pprof)
	}
	o, err := parseFlags([]string{"-pprof", "127.0.0.1:6060"})
	if err != nil || o.pprof != "127.0.0.1:6060" {
		t.Fatalf("-pprof not bound: %q, %v", o.pprof, err)
	}

	const path = "/debug/pprof/cmdline"
	get := func(h http.Handler) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if code := get(pprofHandler()); code != http.StatusOK {
		t.Errorf("pprof handler: GET %s = %d, want 200", path, code)
	}
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	coord, err := cluster.New(cluster.Config{Replicas: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for role, h := range map[string]http.Handler{"service": svc.Handler(), "coordinator": coord.Handler()} {
		if code := get(h); code != http.StatusNotFound {
			t.Errorf("%s API handler: GET %s = %d, want 404", role, path, code)
		}
	}
}
