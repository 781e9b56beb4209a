package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCode holds BENCHMARK.json and the tables the
// program prints from to the same names, units, directions and bounds,
// and both to the contract's limits.
func TestContractMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 || n != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code (limit 2..8)", n, len(workloadDefs))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their reasons differ)", i, w.Name, workloadDefs[i].name)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code (limit 1..16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		unique(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q or bound %g outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric (unit s, better lower)")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code (limit 1..128)", n, len(perLayer))
	}
	for i, m := range b.PerLayer {
		unique(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %s: unit %q or direction %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	// 4 + 22 runs per workload, each of run_seconds plus set-up, must fit
	// the driver's 3420 s with room for two builds.
	if runs := 4 + 22*len(b.Workloads); float64(runs)*(float64(b.RunSeconds)+6) > 3300 {
		t.Errorf("%d runs of %d s plus set-up do not fit the time cap", runs, b.RunSeconds)
	}
}

// TestSmoke runs every workload end to end at about 1% of its size, in
// both modes, and checks that each prints exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			out, host, err := run(w, options{
				seed: 1, budget: 200 * time.Millisecond, trace: trace,
				scratch: t.TempDir(), smoke: true,
			})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if host.NProc < 1 || host.GoVersion == "" || host.TmpFS == "" || host.Workload != w.name {
				t.Errorf("%s: incomplete host record %+v", w.name, host)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w.name, trace, len(out.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or in unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				if c := out.Metrics["trace.coverage"].Value; c <= 0 || c > 1.0001 {
					t.Errorf("%s: trace.coverage = %g", w.name, c)
				}
				if w.name != "sim_large" && w.name != "cold_plain" && w.name != "cold_swept" && out.Metrics["sim.launch_ms"].Value != 0 {
					t.Errorf("%s: a workload built to bypass the simulator recorded sim.launch spans", w.name)
				}
			}
		}
	}
}

// TestSeedDeterminesSequences: the same seed gives the same inputs,
// another seed gives others.
func TestSeedDeterminesSequences(t *testing.T) {
	reqs, err := corpusRequests([]string{"reduction_shfl", "transpose_naive", "spill_pressure"}, []variant{variantPlain, variantSlices})
	if err != nil {
		t.Fatal(err)
	}
	for name, gen := range map[string]func(seed int64) []int{
		"zipf":   func(seed int64) []int { return zipfSequence(seed, len(reqs), 500) },
		"passes": func(seed int64) []int { return shuffledPasses(seed, len(reqs), 8) },
	} {
		a, b, c := sequenceHash(reqs, gen(7)), sequenceHash(reqs, gen(7)), sequenceHash(reqs, gen(8))
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", name, a)
		}
	}
	u1, err := uploadRequests(7, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := uploadRequests(7, 6, 1)
	u3, _ := uploadRequests(8, 6, 2)
	for i := range u1 {
		if !bytes.Equal(u1[i].body, u2[i].body) {
			t.Errorf("upload %d differs between two generations from seed 7", i)
		}
		if bytes.Equal(u1[i].body, u3[i].body) {
			t.Errorf("upload %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestScanEnvelope holds the hand-rolled status walk to encoding/json on
// both formattings a daemon could answer in.
func TestScanEnvelope(t *testing.T) {
	status := map[string]any{
		"id": "j00000001", "state": "done", "cache_hit": true, "degradations": 2,
		"error":      `quote " and brace } in a string`,
		"created_at": "2026-01-01T00:00:00Z",
		"report": map[string]any{
			"kernel": "k", "arch": "sm_70", "findings": []any{map[string]any{"title": "a \"]\" b"}},
			"overhead_cycles": map[string]any{"sass": 123.5e3, "sampling": 1, "metrics": 2},
		},
	}
	compact, _ := json.Marshal(status)
	indented, _ := json.MarshalIndent(status, "", "  ")
	for _, body := range [][]byte{compact, indented} {
		var want envelope
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got, ok := scanEnvelope(body)
		if !ok {
			t.Fatalf("scanEnvelope rejected %s", body)
		}
		if got.State != want.State || got.CacheHit != want.CacheHit || got.Degradations != want.Degradations ||
			got.Error != want.Error || !bytes.Equal(got.Report, want.Report) {
			t.Errorf("scanEnvelope = %+v, encoding/json = %+v", got, want)
		}
		pre, suf := splitAtSASSOverhead(got.Report)
		if rejoined := string(pre) + "0" + string(suf); !json.Valid([]byte(rejoined)) || bytes.Contains([]byte(rejoined), []byte("123")) {
			t.Errorf("splitAtSASSOverhead left %s", rejoined)
		}
	}
	for _, bad := range []string{``, `[]`, `{"state":"done"`, `{"report":{"a":1}`} {
		if _, ok := scanEnvelope([]byte(bad)); ok {
			t.Errorf("scanEnvelope accepted %q", bad)
		}
	}
}
