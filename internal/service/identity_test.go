package service

import (
	"reflect"
	"strings"
	"testing"

	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
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
		"Budgets":     "budgets only decide whether a report degrades, and a degraded report is never cached",
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
		switch name {
		case "Sim":
		case "Budgets":
			o.Budgets = scout.StageBudgets{Disabled: true}
		default:
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

// TestCacheKeyVectors pins CacheKey's output to recorded vectors: the
// key is the address of every report in an existing data directory, so a
// refactor that moves it turns a warm store cold. All six move with the
// schema literal ("gpuscoutd-report-v4": the stored document changed, so
// older entries must not be served). The two sensitivity vectors also
// hash the perturbation matrix's IDs: they move whenever
// gpu.Perturbations does, which is the point — a swept report is only
// valid for its matrix.
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
			"5dabfaac542c0a700f226b459279189cd3cb67e67324cf9ad6121ca2d66c26f0"},
		{"simulated", k, "sm_70", simulated, scout.Options{Sim: sim.Config{SampleSMs: 2}}, false, false,
			"e330544fde4543b5aa4d3543fa6ec61c0c12eccf0b7bbd4e404ebfc9361f439c"},
		{"every report knob", k, "sm_70", simulated,
			scout.Options{SamplingPeriod: 512, StallSlices: true, Sim: sim.Config{SampleSMs: 2}}, true, true,
			"a109ce30dc2275408de9d1fef1e7dbf0762c3b6b05e2a2a2a4a8ef64d5649167"},
		{"arch compare", k, "sm_80", "workload=sgemm_shared scale=64 archcmp=sm_80",
			scout.Options{Sim: sim.Config{SampleSMs: 1, Workers: 4, MaxCycles: 1e6}}, true, false,
			"d3371701bf6318c9f70418afc26d4e24eab06480b809ebdda902f374e53d7e97"},
		{"excluded fields set", k, "sm_70", simulated,
			scout.Options{Sim: sim.Config{SampleSMs: 2, Workers: 8}, Budgets: scout.StageBudgets{Disabled: true}}, false, false,
			"e330544fde4543b5aa4d3543fa6ec61c0c12eccf0b7bbd4e404ebfc9361f439c"},
		{"empty kernel", "", "sm_60", "static", scout.Options{}, false, true,
			"965b3cc7b452fb1130270311923b1916414f8b93aa7685894fa8c2acabd7005a"},
	} {
		if got := CacheKey(v.sass, v.arch, v.launch, v.opts, v.verify, v.sensitivity); got != v.want {
			t.Errorf("%s: CacheKey = %s, want %s", v.name, got, v.want)
		}
	}
}

// TestRequestKeyLaunchFingerprint pins the launch-fingerprint strings a
// resolved request contributes to its key (the rest is CacheKey's): the
// literals below are the parent commit's formats, and they are part of
// the on-disk address just as much as CacheKey's own layout.
func TestRequestKeyLaunchFingerprint(t *testing.T) {
	for _, tc := range []struct {
		req    AnalyzeRequest
		launch string
	}{
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32}, "workload=transpose_naive scale=32"},
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32, DryRun: true}, "static"},
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32, ArchCompare: "sm80", Verify: true},
			"workload=transpose_naive scale=32 archcmp=sm_80"},
		{AnalyzeRequest{Workload: "transpose_naive", Scale: 32, ArchCompare: "sm80", DryRun: true},
			"workload=transpose_naive scale=32 archcmp=sm_80"},
		{AnalyzeRequest{SASS: sass.Print(testKernel(t))}, "static"},
	} {
		plans, err := Resolve(tc.req, 1, scout.StageBudgets{})
		if err != nil {
			t.Fatalf("%+v: %v", tc.req, err)
		}
		base := plans[0]
		want := CacheKey(sass.Print(base.Kernel), "sm_70", tc.launch, base.Opts, tc.req.Verify, tc.req.Sensitivity)
		if got := requestKey(tc.req, plans); got != want {
			t.Errorf("%+v: key does not use launch fingerprint %q", tc.req, tc.launch)
		}
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
