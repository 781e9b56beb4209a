// Command benchgate turns `go test -bench` output into a machine-readable
// benchmark report and a pass/fail regression gate for the parallel
// simulator. The nightly CI job runs
//
//	go test -run '^$' -bench BenchmarkParallelLaunch -benchmem -cpu 1,4 -benchtime=3x . \
//	    | go run ./cmd/benchgate -out BENCH_parallel_sim.json -gate-allocs 4096
//
// benchgate pairs each benchmark's 1-CPU run (no -N name suffix) with its
// multi-CPU run (-4 suffix by default), appends the run as a dated entry
// to the trajectory file named by -out, and exits non-zero when
//
//   - any multi-CPU run is slower than its 1-CPU counterpart by more than
//     the allowed ratio (the parallel path must never cost real time, even
//     on hosts where it cannot win any), or
//   - -gate-allocs is set and any paired run reports more than that many
//     allocs/op (the simulator hot path is arena-backed and must stay
//     allocation-free after launch setup; see DESIGN.md), or
//   - -max-drift is set and any paired run's multi-CPU ns/op exceeds the
//     same pair in the most recent prior trajectory entry by more than
//     that factor. "Most recent" is selected by date (latestEntry), not
//     file position — trajectories merged from parallel CI branches hold
//     entries out of chronological order, and gating against the last
//     array element would silently compare with a stale run.
//
// The -out file is a trajectory: a JSON array of dated entries, one per
// benchgate run, appended to — never overwritten — so the committed file
// records how ns/op and allocs/op evolve across changes. Each entry carries
// a host record (nproc, GOMAXPROCS, Go version, and the -commit it was
// built from), because a ratio means nothing without the machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Sample is one parsed benchmark line.
type Sample struct {
	// Name is the benchmark name without any -N cpu suffix.
	Name string `json:"name"`
	// CPUs is the GOMAXPROCS of the run (1 when the name has no suffix).
	CPUs int `json:"cpus"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp carry the -benchmem columns when present.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds the custom b.ReportMetric values (e.g. sm_speedup_x).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Pair couples a benchmark's single-CPU and multi-CPU runs.
type Pair struct {
	Name        string  `json:"name"`
	BaseNsPerOp float64 `json:"base_ns_per_op"`
	ParNsPerOp  float64 `json:"par_ns_per_op"`
	ParCPUs     int     `json:"par_cpus"`
	// Ratio is par/base; below 1 the parallel run is faster.
	Ratio float64 `json:"ratio"`
	// Speedup is base/par, the wall-clock gain of the parallel run.
	Speedup float64 `json:"speedup"`
	// SMSpeedup carries the benchmark's own sm_speedup_x metric for the
	// parallel run, when present: the simulator-measured concurrency
	// overlap, meaningful even on CPU-starved hosts.
	SMSpeedup float64 `json:"sm_speedup,omitempty"`
	// BaseAllocsPerOp / ParAllocsPerOp carry the -benchmem allocation
	// counts of the two runs (0 when -benchmem was not used).
	BaseAllocsPerOp float64 `json:"base_allocs_per_op,omitempty"`
	ParAllocsPerOp  float64 `json:"par_allocs_per_op,omitempty"`
	Pass            bool    `json:"pass"`
}

// Report is one benchgate evaluation.
type Report struct {
	MaxRatio float64 `json:"max_ratio"`
	// GateAllocs is the allocs/op ceiling applied to every paired run
	// (0 = allocation gate disabled).
	GateAllocs float64  `json:"gate_allocs,omitempty"`
	Pass       bool     `json:"pass"`
	Pairs      []Pair   `json:"pairs"`
	Samples    []Sample `json:"samples"`
}

// Host says where an entry was measured. benchgate fills it from its own
// process, so it is right when benchgate runs on the machine, and with
// the toolchain, that produced the benchmark output — as `make
// bench-parallel` and the nightly workflow do.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

// Entry is one dated run in the trajectory file.
type Entry struct {
	Date string `json:"date"`
	Note string `json:"note,omitempty"`
	// Host is absent from entries written before it was recorded.
	Host *Host `json:"host,omitempty"`
	Report
}

func main() {
	var (
		in         = flag.String("in", "-", "benchmark output to read (- = stdin)")
		out        = flag.String("out", "BENCH_parallel_sim.json", "trajectory file to append this run to (- = print report to stdout, empty = none)")
		cpus       = flag.Int("cpus", 4, "cpu suffix of the parallel runs to gate")
		cpuList    = flag.String("cpu-list", "", "comma-separated GOMAXPROCS values the -cpu flag ran with; only these are recognized as -N name suffixes (default: the -cpus value)")
		maxRatio   = flag.Float64("max-ratio", 1.10, "fail when parallel ns/op exceeds sequential by this factor")
		gateAllocs = flag.Float64("gate-allocs", 0, "fail when any paired run reports more than this many allocs/op (0 = off; requires -benchmem)")
		maxDrift   = flag.Float64("max-drift", 0, "fail when a pair's parallel ns/op exceeds the most recent prior trajectory entry's by this factor (0 = off; needs -out history)")
		note       = flag.String("note", "", "free-form note recorded in the trajectory entry")
		commit     = flag.String("commit", "", "commit the benchmark was built from, recorded in the trajectory entry's host record")
	)
	flag.Parse()

	suffixes, err := parseCPUList(*cpuList, *cpus)
	if err != nil {
		fatal(err)
	}

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	samples, err := parseBench(r, suffixes)
	if err != nil {
		fatal(err)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	rep := gate(samples, *cpus, *maxRatio, *gateAllocs)
	if *out == "-" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(data, '\n'))
	} else if *out != "" {
		// Trend line and drift gate against the most recent prior run —
		// both selected by date, not file position (see latestEntry).
		// Unreadable history is not fatal here; appendEntry will surface
		// it.
		if entries, err := loadTrajectory(*out); err == nil {
			if prev, ok := latestEntry(entries); ok {
				printTrend(prev, rep)
			}
			for _, v := range gateHistory(entries, &rep, *maxDrift) {
				fmt.Fprintf(os.Stderr, "benchgate: DRIFT — %s\n", v)
			}
		}
		host := &Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: *commit}
		entry := Entry{Date: time.Now().UTC().Format(time.RFC3339), Note: *note, Host: host, Report: rep}
		if err := appendEntry(*out, entry); err != nil {
			fatal(err)
		}
	}

	for _, p := range rep.Pairs {
		status := "ok"
		if !p.Pass {
			status = "REGRESSION"
		}
		allocs := ""
		if p.BaseAllocsPerOp != 0 || p.ParAllocsPerOp != 0 {
			allocs = fmt.Sprintf("  allocs %v/%v", p.BaseAllocsPerOp, p.ParAllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %-40s base %12.0f ns/op  %d-cpu %12.0f ns/op  ratio %.3f%s  %s\n",
			p.Name, p.BaseNsPerOp, p.ParCPUs, p.ParNsPerOp, p.Ratio, allocs, status)
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — a %d-cpu run is more than %.0f%% slower than its 1-cpu baseline, or a run exceeded %.0f allocs/op\n",
			*cpus, (*maxRatio-1)*100, *gateAllocs)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchgate: PASS")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}

// parseCPUList builds the set of GOMAXPROCS values that may appear as -N
// benchmark-name suffixes. Defaults to {parCPUs} when the list is empty.
func parseCPUList(list string, parCPUs int) (map[int]bool, error) {
	set := map[int]bool{}
	if strings.TrimSpace(list) == "" {
		set[parCPUs] = true
		return set, nil
	}
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpu-list entry %q", tok)
		}
		set[n] = true
	}
	return set, nil
}

// parseBench extracts Samples from `go test -bench` output. A benchmark
// line looks like
//
//	BenchmarkParallelLaunch/sgemm_naive-4  3  376768490 ns/op  64 B/op  2 allocs/op  3.749 sm_speedup_x
//
// where the trailing -4 is the GOMAXPROCS suffix (absent for 1).
//
// A trailing -N is only treated as a cpu suffix when N is in cpuSuffixes:
// sub-benchmark names routinely end in -<digits> themselves (e.g.
// "copy/vec4-2"), and stripping those would merge distinct benchmarks.
func parseBench(r io.Reader, cpuSuffixes map[int]bool) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		s := Sample{Name: fields[0], CPUs: 1, Metrics: map[string]float64{}}
		if i := strings.LastIndex(s.Name, "-"); i > 0 {
			if n, err := strconv.Atoi(s.Name[i+1:]); err == nil && n > 1 && cpuSuffixes[n] {
				s.Name, s.CPUs = s.Name[:i], n
			}
		}
		// Walk value/unit pairs. On a token that is not a number — or a
		// "value" whose following token is itself numeric — advance by one
		// to resynchronize instead of blindly stepping two, which would
		// skip a valid pair after any malformed column.
		ok := false
		for i := 2; i+1 < len(fields); {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				i++
				continue
			}
			unit := fields[i+1]
			if _, err := strconv.ParseFloat(unit, 64); err == nil {
				i++
				continue
			}
			switch unit {
			case "ns/op":
				s.NsPerOp, ok = v, true
			case "B/op":
				s.BytesPerOp = v
			case "allocs/op":
				s.AllocsPerOp = v
			default:
				s.Metrics[unit] = v
			}
			i += 2
		}
		if ok {
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

// gate pairs each benchmark's 1-CPU sample with its parCPUs sample and
// applies the ratio threshold plus, when gateAllocs > 0, the allocs/op
// ceiling on both sides of the pair. With -count > 1 each side keeps its
// best (minimum ns/op) run, the standard way to damp scheduler noise.
// Benchmarks missing either side are reported as samples but not gated.
func gate(samples []Sample, parCPUs int, maxRatio, gateAllocs float64) Report {
	base := map[string]Sample{}
	par := map[string]Sample{}
	keepBest := func(m map[string]Sample, s Sample) {
		if prev, ok := m[s.Name]; !ok || s.NsPerOp < prev.NsPerOp {
			m[s.Name] = s
		}
	}
	for _, s := range samples {
		switch s.CPUs {
		case 1:
			keepBest(base, s)
		case parCPUs:
			keepBest(par, s)
		}
	}
	rep := Report{MaxRatio: maxRatio, GateAllocs: gateAllocs, Pass: true, Samples: samples}
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := par[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, p := base[name], par[name]
		pair := Pair{
			Name:            name,
			BaseNsPerOp:     b.NsPerOp,
			ParNsPerOp:      p.NsPerOp,
			ParCPUs:         parCPUs,
			Ratio:           p.NsPerOp / b.NsPerOp,
			Speedup:         b.NsPerOp / p.NsPerOp,
			SMSpeedup:       p.Metrics["sm_speedup_x"],
			BaseAllocsPerOp: b.AllocsPerOp,
			ParAllocsPerOp:  p.AllocsPerOp,
		}
		pair.Pass = pair.Ratio <= maxRatio
		if gateAllocs > 0 && (b.AllocsPerOp > gateAllocs || p.AllocsPerOp > gateAllocs) {
			pair.Pass = false
		}
		if !pair.Pass {
			rep.Pass = false
		}
		rep.Pairs = append(rep.Pairs, pair)
	}
	return rep
}

// latestEntry returns the most recent trajectory entry by Date, not by
// array position: trajectory files merged from parallel CI branches (or
// hand-edited) routinely hold entries out of chronological order, and
// "last element" would silently compare against a stale run. Dates are
// RFC3339 UTC, so lexicographic comparison is chronological; undated
// legacy entries sort oldest, and among equal dates the earliest element
// wins for determinism. ok is false for an empty trajectory.
func latestEntry(entries []Entry) (e Entry, ok bool) {
	best := -1
	for i := range entries {
		if best < 0 || entries[i].Date > entries[best].Date {
			best = i
		}
	}
	if best < 0 {
		return Entry{}, false
	}
	return entries[best], true
}

// gateHistory applies the -max-drift gate: each of rep's paired runs is
// compared against the same pair in the most recent prior trajectory
// entry — the max-dated one per latestEntry, the same selection rule the
// trend printing uses — and fails when ParNsPerOp grew by more than
// maxDrift. Pairs absent from the prior entry (new benchmarks) and prior
// pairs with no measurement pass unexamined. Returns one message per
// violation; rep.Pass and the offending pairs' Pass flip to false. A
// maxDrift of 0 (or an empty history) disables the gate.
func gateHistory(entries []Entry, rep *Report, maxDrift float64) []string {
	if maxDrift <= 0 {
		return nil
	}
	prev, ok := latestEntry(entries)
	if !ok {
		return nil
	}
	prevPairs := map[string]Pair{}
	for _, p := range prev.Pairs {
		prevPairs[p.Name] = p
	}
	var violations []string
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		q, ok := prevPairs[p.Name]
		if !ok || q.ParNsPerOp <= 0 {
			continue
		}
		if p.ParNsPerOp > q.ParNsPerOp*maxDrift {
			p.Pass = false
			rep.Pass = false
			violations = append(violations, fmt.Sprintf(
				"%s: %d-cpu %.0f ns/op is %.2fx the prior entry's %.0f (%s; limit %.2fx)",
				p.Name, p.ParCPUs, p.ParNsPerOp, p.ParNsPerOp/q.ParNsPerOp, q.ParNsPerOp,
				prev.Date, maxDrift))
		}
	}
	return violations
}

// printTrend reports how this run's paired ns/op moved against the most
// recent prior entry.
func printTrend(prev Entry, cur Report) {
	prevPairs := map[string]Pair{}
	for _, p := range prev.Pairs {
		prevPairs[p.Name] = p
	}
	when := prev.Date
	if when == "" {
		when = "undated"
	}
	for _, p := range cur.Pairs {
		q, ok := prevPairs[p.Name]
		if !ok || q.ParNsPerOp <= 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "benchgate: %-40s %d-cpu %12.0f ns/op vs %12.0f (%s): %+.1f%%\n",
			p.Name, p.ParCPUs, p.ParNsPerOp, q.ParNsPerOp, when,
			100*(p.ParNsPerOp-q.ParNsPerOp)/q.ParNsPerOp)
	}
}

// appendEntry loads the trajectory at path (tolerating a missing file and
// the legacy single-report format), appends entry, and writes it back.
func appendEntry(path string, entry Entry) error {
	entries, err := loadTrajectory(path)
	if err != nil {
		return err
	}
	entries = append(entries, entry)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadTrajectory reads the entry array at path. A missing or empty file
// yields an empty trajectory; a legacy single-Report document becomes its
// sole (undated) entry so old files keep their history when appended to.
func loadTrajectory(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, nil
	}
	if strings.HasPrefix(trimmed, "{") {
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: legacy report: %w", path, err)
		}
		return []Entry{{Note: "legacy report (pre-trajectory)", Report: rep}}, nil
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}
