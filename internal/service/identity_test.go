package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"gpuscout/internal/cubin"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// setNonZero gives a struct field a value that differs from its zero
// value, by kind. Adding a field of a kind not handled here fails the
// calling test, which is the point: the new field must be classified.
func setNonZero(t *testing.T, f reflect.Value, name string) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString("x")
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int64:
		f.SetInt(3)
	case reflect.Float64:
		f.SetFloat(3.5)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
	default:
		t.Fatalf("field %s: kind %s not handled — teach setNonZero about it and classify the field", name, f.Kind())
	}
}

// TestFingerprintCoversEveryField: every AnalyzeRequest field either
// changes Fingerprint() or is listed here with the reason it must not.
// A new request field that is neither fails the test, so the request
// identity (breaker, batch dedupe, ring routing) cannot silently forget
// an input that changes the report.
func TestFingerprintCoversEveryField(t *testing.T) {
	excluded := map[string]string{
		"TimeoutMS":  "bounds how long the job runs, not what it computes; degraded reports are never cached",
		"SimWorkers": "host parallelism; the simulator's result is bit-identical for every worker count",
	}
	base := (&AnalyzeRequest{}).Fingerprint()
	typ := reflect.TypeOf(AnalyzeRequest{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var req AnalyzeRequest
		setNonZero(t, reflect.ValueOf(&req).Elem().Field(i), name)
		changed := req.Fingerprint() != base
		_, skip := excluded[name]
		switch {
		case changed && skip:
			t.Errorf("%s is in the exclusion table but changes the fingerprint", name)
		case !changed && !skip:
			t.Errorf("%s does not change the fingerprint and is not in the exclusion table", name)
		}
		delete(excluded, name)
	}
	for name := range excluded {
		t.Errorf("exclusion table names %s, which is not an AnalyzeRequest field", name)
	}
}

// TestCacheKeyCoversEveryOption is the same contract for the report
// cache key over scout.Options and the sim.Config inside it.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	excluded := map[string]string{
		"Sim.Workers": "bit-identical by construction: a report computed at any parallelism serves all of them",
		"Sim":         "a struct: its fields are classified one by one",
	}
	key := func(o scout.Options) string { return CacheKey("SASS", "sm_70", "static", o, false, false) }
	base := key(scout.Options{})
	check := func(name string, o scout.Options) {
		changed := key(o) != base
		_, skip := excluded[name]
		switch {
		case changed && skip:
			t.Errorf("%s is in the exclusion table but changes the cache key", name)
		case !changed && !skip:
			t.Errorf("%s does not change the cache key and is not in the exclusion table", name)
		}
		delete(excluded, name)
	}

	typ := reflect.TypeOf(scout.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var o scout.Options
		if name != "Sim" {
			setNonZero(t, reflect.ValueOf(&o).Elem().Field(i), name)
		}
		check(name, o)
	}
	typ = reflect.TypeOf(sim.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := "Sim." + typ.Field(i).Name
		var o scout.Options
		setNonZero(t, reflect.ValueOf(&o.Sim).Elem().Field(i), name)
		check(name, o)
	}
	for name := range excluded {
		t.Errorf("exclusion table names %s, which is not an option field", name)
	}
}

// TestModelDigestCoversGoldens recomputes modelDigest from the tree (the
// rule is in the constant's comment). A mismatch means a golden report or
// a pinned build moved: paste the printed value into cache.go, which
// re-keys every stored report — that is the point. `make digest` runs
// this test with -v and prints the logged value.
func TestModelDigestCoversGoldens(t *testing.T) {
	h := sha256.New()
	add := func(root, rel string) {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, filepath.ToSlash(rel))
		h.Write(data)
	}
	const goldens = "../advisor/testdata/golden"
	var rels []string
	err := filepath.WalkDir(goldens, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(goldens, path)
			rels = append(rels, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no golden reports found")
	}
	sort.Strings(rels)
	for _, rel := range rels {
		add(goldens, rel)
	}
	add("../workloads/testdata", "pinned.json")
	got := hex.EncodeToString(h.Sum(nil))[:12]
	t.Logf("model digest: %s", got)
	if got != modelDigest {
		t.Errorf("modelDigest is %q but the %d goldens and pinned.json hash to %q: a report or build moved — set the constant in cache.go to the new value", modelDigest, len(rels), got)
	}
}

// TestCacheKeyVectors pins CacheKey's output to recorded vectors: the
// key is the address of every report in an existing data directory, so a
// refactor that moves it turns a warm store cold. All six move with
// modelDigest (the stored documents' model changed, so older entries must
// not be served); the four under a named launch also stopped hashing
// their SASS argument — a named launch determines its kernel — which the
// loop asserts: there the key ignores the SASS, under "static" it does
// not. The two sensitivity vectors also hash the perturbation matrix's
// IDs: they move whenever gpu.Perturbations does, which is the point — a
// swept report is only valid for its matrix.
func TestCacheKeyVectors(t *testing.T) {
	const k = "// kernel _Z4axpyPfS_f\n/*0000*/ LDG.E R0, [R2] ;\n/*0010*/ EXIT ;\n"
	simulated := "workload=sgemm_naive scale=64"
	for _, v := range []struct {
		name, sass, arch, launch string
		opts                     scout.Options
		verify, sensitivity      bool
		want                     string
	}{
		{"static", k, "sm_70", "static", scout.Options{DryRun: true}, false, false,
			"81ba59dc5f87875198590e7241b2eea4bdd6702ab619c7b33b891fb02b1f600f"},
		{"simulated", k, "sm_70", simulated, scout.Options{Sim: sim.Config{SampleSMs: 2}}, false, false,
			"24d0ae34a85cf484dd36ba9018234aabfab1a3e8d7c0e422ac3a55b6c954ae86"},
		{"every report knob", k, "sm_70", simulated,
			scout.Options{SamplingPeriod: 512, StallSlices: true, Sim: sim.Config{SampleSMs: 2}}, true, true,
			"e2c84ad5bac0c158e4025a0ef5ede38c2db6fbb6e9687fcc0345a4dcbf2c64a4"},
		{"arch compare", k, "sm_80", "workload=sgemm_shared scale=64 archcmp=sm_80",
			scout.Options{Sim: sim.Config{SampleSMs: 1, Workers: 4, MaxCycles: 1e6}}, true, false,
			"fa546cb8795931364c6f506922fbd7fc9b4c3a54870b7cc436b6bb3bfec584ec"},
		{"excluded fields set", k, "sm_70", simulated,
			scout.Options{Sim: sim.Config{SampleSMs: 2, Workers: 8}}, false, false,
			"24d0ae34a85cf484dd36ba9018234aabfab1a3e8d7c0e422ac3a55b6c954ae86"},
		{"empty kernel", "", "sm_60", "static", scout.Options{}, false, true,
			"933f19e3677d4c8f60847f4c22b780b732199fbc2492cb6fdbf83ec5d6953cae"},
	} {
		if got := CacheKey(v.sass, v.arch, v.launch, v.opts, v.verify, v.sensitivity); got != v.want {
			t.Errorf("%s: CacheKey = %s, want %s", v.name, got, v.want)
		}
		other := CacheKey(v.sass+"NOP ;\n", v.arch, v.launch, v.opts, v.verify, v.sensitivity)
		if byContent := v.launch == "static"; (other != v.want) != byContent {
			t.Errorf("%s: launch %q, key depends on the SASS: %t, want %t", v.name, v.launch, other != v.want, byContent)
		}
	}
}

// TestRequestKeyLaunchFingerprint pins the one rule of requestKey: a
// report about a built-in workload is addressed by name — no SASS, the
// launch fingerprint "workload=<name> scale=<resolved>[ archcmp=<tag>]",
// dry run or not — and a report about an upload by content, under
// "static". The literals are part of the on-disk address just as much as
// CacheKey's own layout. A dry_run workload request used to be addressed
// like an upload of its printed SASS and to share that upload's entry;
// that is given up, because it is the one case that needed the kernel
// lowered before the lookup — every hit paid a compile for it — and no
// known traffic sends the pair.
func TestRequestKeyLaunchFingerprint(t *testing.T) {
	upload := sass.Print(testKernel(t))
	for _, tc := range []struct {
		req          AnalyzeRequest
		sass, launch string
	}{
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32}, "", "workload=transpose_naive scale=32"},
		{AnalyzeRequest{Workload: "transpose_naive"}, "", "workload=transpose_naive scale=256"},
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32, DryRun: true}, "", "workload=transpose_naive scale=32"},
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32, ArchCompare: "sm80", Verify: true},
			"", "workload=transpose_naive scale=32 archcmp=sm_80"},
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32, ArchCompare: "sm80", DryRun: true},
			"", "workload=transpose_naive scale=32 archcmp=sm_80"},
		{AnalyzeRequest{SASS: upload}, upload, "static"},
	} {
		plans, err := Resolve(tc.req, 1)
		if err != nil {
			t.Fatalf("%+v: %v", tc.req, err)
		}
		want := CacheKey(tc.sass, "sm_70", tc.launch, plans[0].Opts, tc.req.Verify, tc.req.Sensitivity)
		if got := requestKey(plans); got != want {
			t.Errorf("%+v: key does not use launch fingerprint %q", tc.req, tc.launch)
		}
	}

	// The given-up case, stated: the dry run of a workload and an upload
	// of the very SASS it lowers to are two entries now.
	w, err := workloads.Build("transpose_naive", 32)
	if err != nil {
		t.Fatal(err)
	}
	named, _ := Resolve(AnalyzeRequest{Workload: "transpose_naive", Scale: 32, DryRun: true}, 1)
	uploaded, err := Resolve(AnalyzeRequest{SASS: sass.Print(w.Kernel)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if requestKey(named) == requestKey(uploaded) {
		t.Error("a dry_run workload request shares a key with an upload of its SASS: the key read a lowered kernel")
	}
}

// unresolvable is the workload requests Resolve refuses, each with the
// build's own message (the parent's texts: they are what a client sees).
var unresolvable = []struct {
	req AnalyzeRequest
	err string
}{
	{AnalyzeRequest{Workload: "nope"}, `workloads: unknown workload "nope" (have [`},
	{AnalyzeRequest{Workload: "sgemm_shared", Scale: 96}, "workloads: sgemm_shared: scale 96 (matrix dimension N) is not a multiple of 64"},
	{AnalyzeRequest{Workload: "sgemm_naive", Scale: 1 << 32}, "workloads: sgemm_naive: scale 4294967296 (matrix dimension N) is over the bound of 16777216"},
}

// TestResolveLowersNothing: Resolve reads names. Every plan of a workload
// request — plain, dry run, swept, compared — comes back without a
// kernel, with the resolved scale, and is addressable as it stands; an
// unknown name and an illegal scale fail there with the build's own
// messages. The SASS-text and cubin forms of one kernel resolve to plans
// with equal keys.
func TestResolveLowersNothing(t *testing.T) {
	for _, req := range []AnalyzeRequest{
		{Workload: "sgemm_naive", Scale: 64},
		{Workload: "sgemm_naive"},
		{Workload: "sgemm_naive", Scale: 64, DryRun: true},
		{Workload: "sgemm_naive", Scale: 64, Verify: true, Sensitivity: true, StallSlices: true},
		{Workload: "sgemm_shared", Scale: 64, Arch: "sm80", ArchCompare: "sm70"},
	} {
		plans, err := Resolve(req, 1)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		wantScale, _ := workloads.Scale(req.Workload, req.Scale)
		for _, p := range plans {
			if p.Kernel != nil || p.Workload != req.Workload || p.Scale != wantScale {
				t.Errorf("%+v: plan has kernel %v, workload %q, scale %d; want no kernel and %s@%d", req, p.Kernel != nil, p.Workload, p.Scale, req.Workload, wantScale)
			}
		}
		if key := requestKey(plans); len(key) != 64 {
			t.Errorf("%+v: key %q", req, key)
		}
	}
	for _, tc := range unresolvable {
		req, want := tc.req, "stage parse: service.resolve: "+tc.err
		if _, err := Resolve(req, 1); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%+v: err = %v, want prefix %q", req, err, want)
		}
	}

	k := testKernel(t)
	bin := cubin.New("sm_70")
	if err := bin.Add(k); err != nil {
		t.Fatal(err)
	}
	data, err := cubin.Encode(bin)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Resolve(AnalyzeRequest{SASS: sass.Print(k)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	container, err := Resolve(AnalyzeRequest{Cubin: data}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != 1 || len(container) != 1 || text[0].Kernel == nil || container[0].Kernel == nil {
		t.Fatalf("uploads resolve to %d and %d plans, want one each, kernel set", len(text), len(container))
	}
	if requestKey(text) != requestKey(container) {
		t.Error("the SASS-text and cubin forms of one kernel have different keys")
	}
}

// TestInvalidWorkloadFailsBeforeAnyTier: moving the lowering behind the
// lookup must not move the name and scale check with it. An unknown
// workload and an illegal scale are answered 422 with the build's own
// message before any tier — a peer included — is asked; a valid request
// asks the peer exactly once, on its miss.
func TestInvalidWorkloadFailsBeforeAnyTier(t *testing.T) {
	var probes atomic.Int32
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4,
		PeerFill: func(context.Context, string, string) ([]byte, bool) {
			probes.Add(1)
			return nil, false
		}})
	for _, tc := range unresolvable {
		reqBody, _ := json.Marshal(tc.req)
		body, want := string(reqBody), "stage parse: service.resolve: "+tc.err
		resp, data := postAnalyze(t, ts, "", body)
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("%s: body %s", body, data)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || st.State != StateFailed || !strings.HasPrefix(st.Error, want) {
			t.Errorf("%s: status %d, state %s, error %q; want 422/failed/%q", body, resp.StatusCode, st.State, st.Error, want)
		}
	}
	if n := probes.Load(); n != 0 {
		t.Errorf("PeerFill was asked %d times about requests that cannot resolve", n)
	}
	for i, wantHit := range []bool{false, true} {
		resp, data := postAnalyze(t, ts, "", `{"workload":"transpose_naive","scale":32,"dry_run":true}`)
		var st Status
		if err := json.Unmarshal(data, &st); err != nil || resp.StatusCode != http.StatusOK || st.CacheHit != wantHit {
			t.Fatalf("valid request %d: status %d, body %s", i, resp.StatusCode, data)
		}
	}
	if n := probes.Load(); n != 1 {
		t.Errorf("PeerFill was asked %d times for one miss and one memory hit, want 1", n)
	}
}

// TestDefaultScaleIsOneAddress: scale 0 and the family's default scale
// are one request — one fingerprint (breaker entry, batch slot, ring
// owner) and one report key — where they used to be two simulations of
// byte-identical reports. One workload per family.
func TestDefaultScaleIsOneAddress(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, w := range []string{"histogram_global", "jacobi_naive", "mixbench_sp_naive", "reduction_atomic",
		"sgemm_naive", "sgemm_shared", "spill_pressure", "transpose_naive"} {
		def, err := workloads.Scale(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		implicit, explicit := AnalyzeRequest{Workload: w, DryRun: true}, AnalyzeRequest{Workload: w, Scale: def, DryRun: true}
		if implicit.Fingerprint() != explicit.Fingerprint() {
			t.Errorf("%s: scale 0 and scale %d have different fingerprints", w, def)
		}
		for i, req := range []AnalyzeRequest{implicit, explicit} {
			body, _ := json.Marshal(req)
			resp, data := postAnalyze(t, ts, "", string(body))
			var st Status
			if err := json.Unmarshal(data, &st); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", w, resp.StatusCode, data)
			}
			if st.CacheHit != (i == 1) {
				t.Errorf("%s request %d (scale %d): cache_hit = %v, want a miss then a hit", w, i, req.Scale, st.CacheHit)
			}
		}
	}
	var batch BatchRequest
	batch.Requests = []AnalyzeRequest{{Workload: "sgemm_naive"}, {Workload: "sgemm_naive", Scale: 256}}
	if first, _, _ := batch.Dedupe(); len(first) != 1 {
		t.Errorf("a batch of scale 0 and the default scale dedupes to %d jobs, want 1", len(first))
	}

	// A family that ignores scale has one address for every accepted one:
	// reduction's scale 5 is its scale 0.
	five, zero := AnalyzeRequest{Workload: "reduction_shfl", Scale: 5, DryRun: true}, AnalyzeRequest{Workload: "reduction_shfl", DryRun: true}
	if five.Fingerprint() != zero.Fingerprint() {
		t.Error("reduction_shfl: scale 5 and scale 0 have different fingerprints")
	}
	for i, req := range []AnalyzeRequest{five, zero} {
		body, _ := json.Marshal(req)
		resp, data := postAnalyze(t, ts, "", string(body))
		var st Status
		if err := json.Unmarshal(data, &st); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("reduction_shfl: status %d, body %s", resp.StatusCode, data)
		}
		if st.CacheHit != (i == 1) {
			t.Errorf("reduction_shfl request %d (scale %d): cache_hit = %v, want a miss then a hit", i, req.Scale, st.CacheHit)
		}
	}
	batch.Requests = []AnalyzeRequest{five, zero}
	if first, _, _ := batch.Dedupe(); len(first) != 1 {
		t.Errorf("a reduction batch of scale 5 and scale 0 dedupes to %d jobs, want 1", len(first))
	}
}

// archSpellings lists, per architecture, every spelling gpu.ByName
// accepts ("" is the default architecture).
var archSpellings = map[string][]string{
	"sm_70": {"", "sm_70", "sm70", "V100", "v100", "Tesla V100"},
	"sm_80": {"sm_80", "sm80", "A100", "a100"},
}

// TestFingerprintCanonicalArch: every spelling of one architecture, on
// arch and on arch_compare, is one request identity — one breaker entry,
// one batch slot, one ring owner — as it already is one CacheKey. An
// unknown name keeps an identity of its own, and is still rejected where
// it always was: at resolve, as a failed job.
func TestFingerprintCanonicalArch(t *testing.T) {
	seen := map[string]string{} // fingerprint -> the arch it belongs to
	for _, field := range []string{"arch", "arch_compare"} {
		for tag, spellings := range archSpellings {
			want := ""
			for _, sp := range spellings {
				if field == "arch_compare" && sp == "" {
					continue // no arch_compare is a plain request, not a spelling of sm_70
				}
				req := AnalyzeRequest{Workload: "sgemm_naive", Scale: 64}
				if field == "arch" {
					req.Arch = sp
				} else {
					req.ArchCompare = sp
				}
				fp := req.Fingerprint()
				if want == "" {
					want = fp
				}
				if fp != want {
					t.Errorf("%s=%q: fingerprint %s, other spellings of %s have %s", field, sp, fp, tag, want)
				}
			}
			if prev, dup := seen[want]; dup {
				t.Errorf("%s %s shares a fingerprint with %s", field, tag, prev)
			}
			seen[want] = field + " " + tag
		}
	}

	// The canonical spelling is the explicit SM tag, so requests that
	// always spelled it that way kept their identity (and their ring owner
	// and breaker entry): these literals were recorded before
	// canonicalisation.
	for want, req := range map[string]AnalyzeRequest{
		"d8628dde949097bfd31bf49191b980ef": {Workload: "sgemm_naive", Scale: 64, Arch: "sm_70"},
		"3a0bbaf2c5781c6c44526e8778150fe3": {Workload: "sgemm_naive", Scale: 64, Arch: "sm_80", Verify: true, StallSlices: true},
		"fd83900659e05d46811ef8a01cf34e32": {Workload: "sgemm_naive", Scale: 64, Arch: "sm_70", ArchCompare: "sm_80"},
	} {
		if got := req.Fingerprint(); got != want {
			t.Errorf("%+v: fingerprint moved to %s, was %s", req, got, want)
		}
	}

	var batch BatchRequest
	for _, sp := range archSpellings["sm_70"] {
		batch.Requests = append(batch.Requests, AnalyzeRequest{Workload: "sgemm_naive", Scale: 64, Arch: sp})
	}
	if first, _, _ := batch.Dedupe(); len(first) != 1 {
		t.Errorf("a batch of %d spellings of sm_70 dedupes to %d jobs, want 1", len(batch.Requests), len(first))
	}

	unknown := AnalyzeRequest{Workload: "sgemm_naive", Scale: 64, Arch: "sm_999"}
	if prev, dup := seen[unknown.Fingerprint()]; dup {
		t.Errorf("unknown arch shares a fingerprint with %s", prev)
	}
	svc, _ := newTestServer(t, Config{Workers: 1})
	j, err := svc.Submit(unknown)
	if err != nil {
		t.Fatalf("unknown arch rejected at the door (%v); it is a resolve failure", err)
	}
	<-j.Done()
	if st := j.Snapshot(); st.State != StateFailed || !strings.Contains(st.Error, "unknown architecture") {
		t.Errorf("unknown arch: state=%s error=%q, want failed at resolve", st.State, st.Error)
	}
}
