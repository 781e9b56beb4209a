package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// goldenScales pins each workload family to a small problem size so the
// suite runs in seconds; the scale is part of the golden contract.
var goldenScales = map[string]int{
	"histogram": 4,
	"jacobi":    128,
	"mixbench":  8,
	"reduction": 0, // fixed size
	"sgemm":     64,
	"spill":     8,
	"transpose": 64,
}

func goldenScale(t *testing.T, name string) int {
	family := name
	if i := strings.IndexByte(name, '_'); i >= 0 {
		family = name[:i]
	}
	scale, ok := goldenScales[family]
	if !ok {
		t.Fatalf("no golden scale for workload family %q (add it to goldenScales)", family)
	}
	return scale
}

// goldenAnalyze produces the full advisor-v2 report for one workload at
// the given simulator parallelism through Run, as every front end does:
// analysis with backward stall slices, counterfactual verification, and
// the sensitivity sweep with its payoff-ranked finding order.
func goldenAnalyze(t *testing.T, name string, workers int, arch gpu.Arch) *scout.Report {
	t.Helper()
	out, err := Run(context.Background(), Plan{Arch: arch, Workload: name, Scale: goldenScale(t, name), Verify: true, Sensitivity: true,
		Opts: scout.Options{Sim: sim.Config{SampleSMs: 1, Workers: workers}, StallSlices: true}})
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return out.Report
}

// TestRunMatchesPasses: Run, whose cells start while the baseline still
// records, writes the bytes of the passes assembled by hand one after
// another — AnalyzeContext, Verify, Sweep — with two sampled SMs, so
// each cell is two items that start at different times. The workloads
// cover a paired baseline, many proved cells and a bandwidth-bound
// kernel.
func TestRunMatchesPasses(t *testing.T) {
	ctx, cfg := context.Background(), sim.Config{SampleSMs: 2}
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, name := range []string{"sgemm_naive", "transpose_shared", "mixbench_sp_naive"} {
			scale := goldenScale(t, name)
			w, err := workloads.BuildArch(name, scale, arch)
			if err != nil {
				t.Fatal(err)
			}
			run := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
				return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), c)
			}
			rep, err := scout.AnalyzeContext(ctx, arch, w.Kernel, run, scout.Options{Sim: cfg, StallSlices: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(ctx, rep, name, scale, arch, cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := Sweep(ctx, rep, name, scale, arch, cfg); err != nil {
				t.Fatal(err)
			}
			out, err := Run(ctx, Plan{Arch: arch, Workload: name, Scale: scale, Verify: true, Sensitivity: true,
				Opts: scout.Options{Sim: cfg, StallSlices: true}})
			if err != nil {
				t.Fatal(err)
			}
			want, err := rep.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := out.Report.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s on %s: Run differs from the passes:\n%s", name, arch.SM, firstDiff(string(got), string(want)))
			}
			// A cell's cycles, the max of its SMs' finishes, are the whole
			// launch's on the perturbed device.
			if len(out.Report.Sensitivity.Deltas) != len(gpu.Perturbations()) {
				t.Fatalf("%s on %s: sensitivity %+v", name, arch.SM, out.Report.Sensitivity)
			}
			for i, p := range gpu.Perturbations() {
				res, err := workloads.ExecuteContext(ctx, w, sim.NewDevice(p.Apply(arch)), cfg)
				if err != nil || res.Cycles != out.Report.Sensitivity.Deltas[i].Cycles {
					t.Errorf("%s on %s, %s: Run measured %v cycles, an execution %v (%v)", name, arch.SM, p.ID(), out.Report.Sensitivity.Deltas[i].Cycles, res, err)
				}
			}
		}
	}
}

// goldenReport renders goldenAnalyze's report in both text and JSON
// forms. The goldens lock the complete surface — slice chains,
// sensitivity matrices, and estimated-speedup ordering included.
func goldenReport(t *testing.T, name string, workers int, arch gpu.Arch) (string, []byte) {
	t.Helper()
	rep := goldenAnalyze(t, name, workers, arch)
	js, err := rep.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	return rep.Render(), append(js, '\n')
}

// runGoldenSuite locks down the full verified report — text and JSON —
// for every registered workload on one architecture, and proves the
// simulator's determinism guarantee at the report level: Workers=1 and
// Workers=4 must render byte-identically.
func runGoldenSuite(t *testing.T, arch gpu.Arch, dir string) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			text, js := goldenReport(t, name, 1, arch)
			textPar, jsPar := goldenReport(t, name, 4, arch)
			if text != textPar {
				t.Errorf("text report differs between Workers=1 and Workers=4:\n%s",
					firstDiff(text, textPar))
			}
			if !bytes.Equal(js, jsPar) {
				t.Errorf("JSON report differs between Workers=1 and Workers=4:\n%s",
					firstDiff(string(js), string(jsPar)))
			}

			txtPath := filepath.Join(dir, name+".txt")
			jsonPath := filepath.Join(dir, name+".json")
			compareGolden(t, txtPath, []byte(text))
			compareGolden(t, jsonPath, js)
		})
	}
}

// TestGoldenReports is the sm_70 golden suite. Its files predate the
// arch-neutral IR refactor, so passing it proves the Volta backend's
// lowering is byte-identical to the pre-refactor compiler. Regenerate
// with: go test ./internal/advisor -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	runGoldenSuite(t, gpu.V100(), filepath.Join("testdata", "golden"))
}

// TestGoldenReportsSM80 is the same suite lowered and simulated for the
// Ampere-class sm_80 backend (cp.async fusion, wider L1 sectors, its own
// machine tables). Regenerate with:
// go test ./internal/advisor -run TestGoldenReportsSM80 -update
func TestGoldenReportsSM80(t *testing.T) {
	runGoldenSuite(t, gpu.A100(), filepath.Join("testdata", "golden", "sm80"))
}

// TestGoldenArchCompare pins the cross-arch comparison's wire form (the
// deltas plus both full reports): sgemm_shared's global-load findings are
// removed by sm_80's cp.async lowering (only_base deltas), sgemm_naive's
// persist with an advisor verdict on both sides. Regenerate with:
// go test ./internal/advisor -run TestGoldenArchCompare -update
func TestGoldenArchCompare(t *testing.T) {
	for _, name := range []string{"sgemm_shared", "sgemm_naive"} {
		t.Run(name, func(t *testing.T) {
			cmp := scout.CompareReports(goldenAnalyze(t, name, 1, gpu.V100()), goldenAnalyze(t, name, 1, gpu.A100()))
			js, err := cmp.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", "archcompare_"+name+"_sm70_sm80.json"), append(js, '\n'))
		})
	}
}

// goldenJSONPaths lists every committed golden JSON document: both
// arches' reports and the arch comparisons.
func goldenJSONPaths(t *testing.T) []string {
	t.Helper()
	var paths []string
	for _, pattern := range []string{"*.json", filepath.Join("sm80", "*.json")} {
		m, err := filepath.Glob(filepath.Join("testdata", "golden", pattern))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 2*len(workloads.Names())+1 {
		t.Fatalf("found only %d golden JSON files", len(paths))
	}
	return paths
}

// TestGoldenJSONDecodes proves the wire tags are symmetric: every golden
// report and arch comparison decodes into scout.Report /
// scout.ArchComparison, the types the analysis builds, with no unknown
// field, and their MarshalJSON re-encodes the same bytes — so a report
// read back from the cache, the store or a peer loses nothing.
func TestGoldenJSONDecodes(t *testing.T) {
	for _, path := range goldenJSONPaths(t) {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc json.Marshaler = new(scout.Report)
		if strings.HasPrefix(filepath.Base(path), "archcompare_") {
			doc = new(scout.ArchComparison)
		}
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		if err := dec.Decode(doc); err != nil {
			t.Errorf("%s: decode: %v", path, err)
			continue
		}
		got, err := doc.MarshalJSON()
		if err != nil {
			t.Errorf("%s: re-encode: %v", path, err)
			continue
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s: decode + re-encode changed the document:\n%s", path, firstDiff(string(got), string(want)))
		}
	}
}

// compareGolden checks got against the golden file at path, or rewrites
// the file under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (run with -update to accept):\n%s",
			path, firstDiff(string(got), string(want)))
	}
}

// firstDiff points at the first line where two renderings diverge.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("one rendering is a prefix of the other (got %d lines, want %d)",
		len(al), len(bl))
}
