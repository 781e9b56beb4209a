package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: gpuscout
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkParallelLaunch/sgemm_naive           	       3	 323249914 ns/op	         0.9989 sm_speedup_x
BenchmarkParallelLaunch/sgemm_naive-4         	       3	 120768490 ns/op	         3.749 sm_speedup_x
BenchmarkParallelLaunch/jacobi_naive          	       3	 129750708 ns/op	         0.9984 sm_speedup_x
BenchmarkParallelLaunch/jacobi_naive-4        	       3	  41635622 ns/op	         3.316 sm_speedup_x
BenchmarkDryRun-4                             	     100	   1234567 ns/op
PASS
ok  	gpuscout	5.950s
`

func cpuSet(ns ...int) map[int]bool {
	m := map[int]bool{}
	for _, n := range ns {
		m[n] = true
	}
	return m
}

func TestParseBench(t *testing.T) {
	samples, err := parseBench(strings.NewReader(sampleOutput), cpuSet(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d samples, want 5", len(samples))
	}
	s := samples[1]
	if s.Name != "BenchmarkParallelLaunch/sgemm_naive" || s.CPUs != 4 {
		t.Errorf("sample 1 = %q cpus %d, want sgemm_naive cpus 4", s.Name, s.CPUs)
	}
	if s.NsPerOp != 120768490 {
		t.Errorf("NsPerOp = %v", s.NsPerOp)
	}
	if s.Metrics["sm_speedup_x"] != 3.749 {
		t.Errorf("sm_speedup_x = %v", s.Metrics["sm_speedup_x"])
	}
	// The unsuffixed run is CPUs 1; a workload name with dashes must not
	// be mis-split (only a trailing integer > 1 is a cpu suffix).
	if samples[0].CPUs != 1 {
		t.Errorf("unsuffixed sample parsed as cpus %d", samples[0].CPUs)
	}
}

// TestParseBenchHyphenatedNames pins the cpu-suffix fix: a sub-benchmark
// whose own name ends in -<digits> (like vec4-2) must only lose the
// suffix when that number is a GOMAXPROCS value the run was told about.
func TestParseBenchHyphenatedNames(t *testing.T) {
	cases := []struct {
		line     string
		cpuList  map[int]bool
		wantName string
		wantCPUs int
	}{
		{
			// -2 names a variant, not a cpu count: 2 is not in the list.
			line:     "BenchmarkCopy/vec4-2 	 3	 1000 ns/op",
			cpuList:  cpuSet(4),
			wantName: "BenchmarkCopy/vec4-2",
			wantCPUs: 1,
		},
		{
			// Same name under -cpu 1,2: now -2 IS the GOMAXPROCS suffix.
			line:     "BenchmarkCopy/vec4-2 	 3	 1000 ns/op",
			cpuList:  cpuSet(2),
			wantName: "BenchmarkCopy/vec4",
			wantCPUs: 2,
		},
		{
			line:     "BenchmarkCopy/vec4-2-4 	 3	 1000 ns/op",
			cpuList:  cpuSet(4),
			wantName: "BenchmarkCopy/vec4-2",
			wantCPUs: 4,
		},
		{
			// -128 looks like a big cpu suffix but is not in the list.
			line:     "BenchmarkTile/size-128 	 3	 1000 ns/op",
			cpuList:  cpuSet(4),
			wantName: "BenchmarkTile/size-128",
			wantCPUs: 1,
		},
		{
			// -1 is never a suffix (go test only appends for GOMAXPROCS>1).
			line:     "BenchmarkX/case-1 	 3	 1000 ns/op",
			cpuList:  cpuSet(1, 4),
			wantName: "BenchmarkX/case-1",
			wantCPUs: 1,
		},
	}
	for _, tc := range cases {
		samples, err := parseBench(strings.NewReader(tc.line+"\n"), tc.cpuList)
		if err != nil || len(samples) != 1 {
			t.Fatalf("%q: parse: %v, %d samples", tc.line, err, len(samples))
		}
		if samples[0].Name != tc.wantName || samples[0].CPUs != tc.wantCPUs {
			t.Errorf("%q: got (%q, %d), want (%q, %d)",
				tc.line, samples[0].Name, samples[0].CPUs, tc.wantName, tc.wantCPUs)
		}
	}
}

// TestParseBenchMalformed pins the resynchronization fix: a malformed
// column must not shift the value/unit pairing off by one for the rest of
// the line, and garbage lines must not produce samples.
func TestParseBenchMalformed(t *testing.T) {
	cases := []struct {
		name    string
		line    string
		want    int // samples parsed
		ns      float64
		allocs  float64
		metrics map[string]float64
	}{
		{
			name: "well-formed with benchmem",
			line: "BenchmarkX 	 3	 1000 ns/op	 64 B/op	 2 allocs/op",
			want: 1, ns: 1000, allocs: 2,
		},
		{
			// A stray non-numeric token before ns/op: the old i += 2 walk
			// landed on (ns/op, 64) next and dropped everything; the
			// resynchronizing walk recovers the remaining pairs.
			name: "stray token resync",
			line: "BenchmarkX 	 3	 ??? 1000 ns/op	 64 B/op	 2 allocs/op",
			want: 1, ns: 1000, allocs: 2,
		},
		{
			// Two numbers in a row (mangled count column): the first number
			// is not a (value, unit) pair and must be skipped by one.
			name: "doubled number resync",
			line: "BenchmarkX 	 3	 7 1000 ns/op	 0.5 things_x",
			want: 1, ns: 1000, metrics: map[string]float64{"things_x": 0.5},
		},
		{
			name: "no ns/op at all",
			line: "BenchmarkX 	 3	 64 B/op	 2 allocs/op",
			want: 0,
		},
		{
			name: "too few fields",
			line: "BenchmarkX 	 3	 1000",
			want: 0,
		},
	}
	for _, tc := range cases {
		samples, err := parseBench(strings.NewReader(tc.line+"\n"), cpuSet(4))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(samples) != tc.want {
			t.Fatalf("%s: parsed %d samples, want %d", tc.name, len(samples), tc.want)
		}
		if tc.want == 0 {
			continue
		}
		s := samples[0]
		if s.NsPerOp != tc.ns {
			t.Errorf("%s: NsPerOp = %v, want %v", tc.name, s.NsPerOp, tc.ns)
		}
		if s.AllocsPerOp != tc.allocs {
			t.Errorf("%s: AllocsPerOp = %v, want %v", tc.name, s.AllocsPerOp, tc.allocs)
		}
		for k, v := range tc.metrics {
			if s.Metrics[k] != v {
				t.Errorf("%s: metric %s = %v, want %v", tc.name, k, s.Metrics[k], v)
			}
		}
	}
}

func TestGatePass(t *testing.T) {
	samples, _ := parseBench(strings.NewReader(sampleOutput), cpuSet(4))
	rep := gate(samples, 4, 1.10, 0)
	if !rep.Pass {
		t.Fatalf("gate failed: %+v", rep.Pairs)
	}
	if len(rep.Pairs) != 2 {
		t.Fatalf("paired %d benchmarks, want 2 (DryRun has no 1-cpu baseline)", len(rep.Pairs))
	}
	// Pairs are sorted by name.
	if rep.Pairs[0].Name != "BenchmarkParallelLaunch/jacobi_naive" {
		t.Errorf("pair order: %q first", rep.Pairs[0].Name)
	}
	p := rep.Pairs[1]
	if p.Ratio >= 1 || p.Speedup < 2.5 {
		t.Errorf("sgemm pair ratio %.3f speedup %.3f", p.Ratio, p.Speedup)
	}
	if p.SMSpeedup != 3.749 {
		t.Errorf("SMSpeedup = %v", p.SMSpeedup)
	}
}

func TestGateRegression(t *testing.T) {
	slow := strings.ReplaceAll(sampleOutput,
		"BenchmarkParallelLaunch/sgemm_naive-4         	       3	 120768490 ns/op",
		"BenchmarkParallelLaunch/sgemm_naive-4         	       3	 400000000 ns/op")
	samples, _ := parseBench(strings.NewReader(slow), cpuSet(4))
	rep := gate(samples, 4, 1.10, 0)
	if rep.Pass {
		t.Fatal("gate passed a 24% regression")
	}
	var failed int
	for _, p := range rep.Pairs {
		if !p.Pass {
			failed++
			if p.Name != "BenchmarkParallelLaunch/sgemm_naive" {
				t.Errorf("wrong pair failed: %q", p.Name)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d pairs failed, want 1", failed)
	}
}

func TestGateToleratesSmallSlowdown(t *testing.T) {
	// 5% slower than baseline stays within the 10% budget — noise on a
	// loaded or single-core host must not flap the gate.
	in := `BenchmarkParallelLaunch/x 	 3	 100000000 ns/op
BenchmarkParallelLaunch/x-4 	 3	 105000000 ns/op
`
	samples, err := parseBench(strings.NewReader(in), cpuSet(4))
	if err != nil || len(samples) != 2 {
		t.Fatalf("parse: %v, %d samples", err, len(samples))
	}
	if rep := gate(samples, 4, 1.10, 0); !rep.Pass {
		t.Errorf("5%% slowdown failed the 10%% gate: %+v", rep.Pairs)
	}
}

func TestGateAllocs(t *testing.T) {
	in := `BenchmarkParallelLaunch/x 	 3	 100000000 ns/op	 2048 B/op	 10 allocs/op
BenchmarkParallelLaunch/x-4 	 3	  50000000 ns/op	 2048 B/op	 500 allocs/op
`
	samples, err := parseBench(strings.NewReader(in), cpuSet(4))
	if err != nil || len(samples) != 2 {
		t.Fatalf("parse: %v, %d samples", err, len(samples))
	}
	if rep := gate(samples, 4, 1.10, 0); !rep.Pass {
		t.Errorf("disabled allocation gate failed: %+v", rep.Pairs)
	}
	if rep := gate(samples, 4, 1.10, 1000); !rep.Pass {
		t.Errorf("500 allocs/op failed a 1000 ceiling: %+v", rep.Pairs)
	}
	rep := gate(samples, 4, 1.10, 100)
	if rep.Pass {
		t.Error("500 allocs/op passed a 100 ceiling")
	}
	if p := rep.Pairs[0]; p.BaseAllocsPerOp != 10 || p.ParAllocsPerOp != 500 {
		t.Errorf("pair allocs = %v/%v, want 10/500", p.BaseAllocsPerOp, p.ParAllocsPerOp)
	}
}

// TestTrajectoryAppend pins the -out semantics: the file is a JSON array
// of dated entries that grows by one per run; a legacy single-report file
// is absorbed as the first entry rather than clobbered.
func TestTrajectoryAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_parallel_sim.json")

	rep := Report{MaxRatio: 1.1, Pass: true}
	if err := appendEntry(path, Entry{Date: "2026-08-08T00:00:00Z", Note: "first", Report: rep}); err != nil {
		t.Fatal(err)
	}
	host := &Host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "abc1234"}
	if err := appendEntry(path, Entry{Date: "2026-08-09T00:00:00Z", Note: "second", Host: host, Report: rep}); err != nil {
		t.Fatal(err)
	}
	entries, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Note != "first" || entries[1].Note != "second" {
		t.Fatalf("trajectory = %+v, want first,second", entries)
	}
	// The host record round-trips; entries from before it existed stay nil.
	if entries[0].Host != nil || entries[1].Host == nil || *entries[1].Host != *host {
		t.Errorf("host records = %+v, %+v; want nil, %+v", entries[0].Host, entries[1].Host, host)
	}

	// Legacy single-report file becomes the sole entry on the next append.
	legacy := filepath.Join(dir, "legacy.json")
	data, _ := json.Marshal(rep)
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendEntry(legacy, Entry{Date: "2026-08-09T00:00:00Z", Note: "new", Report: rep}); err != nil {
		t.Fatal(err)
	}
	entries, err = loadTrajectory(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Note != "new" {
		t.Fatalf("legacy upgrade = %+v, want 2 entries ending in new", entries)
	}
	if entries[0].Report.MaxRatio != 1.1 {
		t.Errorf("legacy report lost: %+v", entries[0])
	}
}

func TestLatestEntry(t *testing.T) {
	mk := func(date, note string) Entry {
		return Entry{Date: date, Note: note}
	}
	cases := []struct {
		name    string
		entries []Entry
		want    string // note of the expected entry
		ok      bool
	}{
		{"empty", nil, "", false},
		{"single", []Entry{mk("2026-08-08T00:00:00Z", "only")}, "only", true},
		{"in_order", []Entry{
			mk("2026-08-07T00:00:00Z", "old"),
			mk("2026-08-08T00:00:00Z", "new"),
		}, "new", true},
		// The point of the function: a merged trajectory whose newest
		// entry is NOT last must still be selected by date.
		{"out_of_order", []Entry{
			mk("2026-08-06T00:00:00Z", "oldest"),
			mk("2026-08-09T12:00:00Z", "newest"),
			mk("2026-08-08T00:00:00Z", "middle"),
			mk("2026-08-07T00:00:00Z", "older"),
		}, "newest", true},
		{"legacy_undated_sorts_oldest", []Entry{
			mk("", "legacy"),
			mk("2026-08-08T00:00:00Z", "dated"),
			mk("", "legacy2"),
		}, "dated", true},
		{"all_undated_keeps_first", []Entry{
			mk("", "a"),
			mk("", "b"),
		}, "a", true},
		{"tie_keeps_first", []Entry{
			mk("2026-08-08T00:00:00Z", "first"),
			mk("2026-08-08T00:00:00Z", "second"),
		}, "first", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := latestEntry(tc.entries)
			if ok != tc.ok {
				t.Fatalf("ok = %t, want %t", ok, tc.ok)
			}
			if ok && got.Note != tc.want {
				t.Errorf("latestEntry picked %q (date %s), want %q", got.Note, got.Date, tc.want)
			}
		})
	}
}

// TestGateHistory pins the drift gate to the same max-date entry
// selection the trend printing uses: an out-of-order trajectory must gate
// against the newest entry by date, not the last array element.
func TestGateHistory(t *testing.T) {
	pair := func(name string, parNs float64) Pair {
		return Pair{Name: name, ParNsPerOp: parNs, ParCPUs: 4, Pass: true}
	}
	entry := func(date string, pairs ...Pair) Entry {
		return Entry{Date: date, Report: Report{Pairs: pairs}}
	}
	cases := []struct {
		name       string
		entries    []Entry
		cur        []Pair
		maxDrift   float64
		violations int
		wantPass   bool
	}{
		{
			name:     "disabled",
			entries:  []Entry{entry("2026-08-07T00:00:00Z", pair("x", 100))},
			cur:      []Pair{pair("x", 1000)},
			maxDrift: 0, violations: 0, wantPass: true,
		},
		{
			name:     "empty_history",
			entries:  nil,
			cur:      []Pair{pair("x", 1000)},
			maxDrift: 1.2, violations: 0, wantPass: true,
		},
		{
			name:     "within_budget",
			entries:  []Entry{entry("2026-08-07T00:00:00Z", pair("x", 100))},
			cur:      []Pair{pair("x", 110)},
			maxDrift: 1.2, violations: 0, wantPass: true,
		},
		{
			name:     "regression",
			entries:  []Entry{entry("2026-08-07T00:00:00Z", pair("x", 100))},
			cur:      []Pair{pair("x", 150)},
			maxDrift: 1.2, violations: 1, wantPass: false,
		},
		{
			// The fix under test: the newest entry by date (x=200, dated
			// Aug 8) sits before a stale one (x=100, dated Aug 6) in the
			// array. Gating against array order would flag 210 > 100*1.2;
			// gating against the max-dated entry accepts 210 <= 200*1.2.
			name: "out_of_order_uses_max_date",
			entries: []Entry{
				entry("2026-08-08T00:00:00Z", pair("x", 200)),
				entry("2026-08-06T00:00:00Z", pair("x", 100)),
			},
			cur:      []Pair{pair("x", 210)},
			maxDrift: 1.2, violations: 0, wantPass: true,
		},
		{
			// Mirror image: the stale entry is newer-positioned but
			// older-dated and fast; the max-dated entry is slow, so a
			// current slow run still passes.
			name: "out_of_order_regression_detected",
			entries: []Entry{
				entry("2026-08-08T00:00:00Z", pair("x", 100)),
				entry("2026-08-06T00:00:00Z", pair("x", 500)),
			},
			cur:      []Pair{pair("x", 150)},
			maxDrift: 1.2, violations: 1, wantPass: false,
		},
		{
			name:     "new_benchmark_unexamined",
			entries:  []Entry{entry("2026-08-07T00:00:00Z", pair("x", 100))},
			cur:      []Pair{pair("x", 100), pair("y", 9999)},
			maxDrift: 1.2, violations: 0, wantPass: true,
		},
		{
			name:     "prior_without_measurement_unexamined",
			entries:  []Entry{entry("2026-08-07T00:00:00Z", pair("x", 0))},
			cur:      []Pair{pair("x", 9999)},
			maxDrift: 1.2, violations: 0, wantPass: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Report{Pass: true, Pairs: tc.cur}
			got := gateHistory(tc.entries, &rep, tc.maxDrift)
			if len(got) != tc.violations {
				t.Errorf("violations = %d (%v), want %d", len(got), got, tc.violations)
			}
			if rep.Pass != tc.wantPass {
				t.Errorf("rep.Pass = %t, want %t", rep.Pass, tc.wantPass)
			}
			if !tc.wantPass {
				failed := 0
				for _, p := range rep.Pairs {
					if !p.Pass {
						failed++
					}
				}
				if failed == 0 {
					t.Error("report failed but no pair was marked")
				}
			}
		})
	}
}

func TestParseCPUList(t *testing.T) {
	set, err := parseCPUList("", 4)
	if err != nil || !set[4] || len(set) != 1 {
		t.Errorf("default list = %v, %v", set, err)
	}
	set, err = parseCPUList("1, 2,8", 4)
	if err != nil || !set[1] || !set[2] || !set[8] || len(set) != 3 {
		t.Errorf("explicit list = %v, %v", set, err)
	}
	if _, err := parseCPUList("4,x", 4); err == nil {
		t.Error("bad list accepted")
	}
}
