package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuscout"
	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/scout"
	"gpuscout/internal/service"
)

// TestArchCompareHonoursSensitivity: -arch-compare runs the same
// pipeline per architecture as a plain analysis, so -sensitivity attaches
// a sweep to both reports instead of being silently dropped.
func TestArchCompareHonoursSensitivity(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cmp.json")
	var stdout bytes.Buffer
	if err := run([]string{"-workload", "transpose_shared", "-scale", "64", "-sample-sms", "1",
		"-arch-compare", "sm80", "-sensitivity", "-json", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var cmp scout.ArchComparison
	if err := json.Unmarshal(data, &cmp); err != nil {
		t.Fatalf("-json output is not an arch comparison: %v", err)
	}
	for side, rep := range map[string]*scout.Report{"base": cmp.Base, "other": cmp.Other} {
		if rep == nil || rep.Sensitivity == nil || len(rep.Sensitivity.Deltas) == 0 {
			t.Errorf("%s report carries no sensitivity sweep", side)
		}
	}
}

// TestSensitivitySummaryCountsTheMatrix pins the size of the sweep where
// it is computed: the summary line (which `make sensitivity-smoke` greps
// for, number left open) reports one re-simulation per entry of
// gpu.Perturbations().
func TestSensitivitySummaryCountsTheMatrix(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-workload", "transpose_shared", "-scale", "64", "-sample-sms", "1",
		"-sensitivity"}, &stdout); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("sensitivity: %d perturbation(s) re-simulated", len(gpu.Perturbations()))
	if !strings.Contains(stdout.String(), want) {
		t.Errorf("output lacks %q", want)
	}
}

// TestVerificationLineCountsTheBlocks: after a -verify report the CLI
// prints one line counting the findings that carry a Verification block,
// by verdict (pinned for a run with all three); a static fallback was
// not verified, and prints none.
func TestVerificationLineCountsTheBlocks(t *testing.T) {
	args := []string{"-workload", "jacobi_naive", "-scale", "128", "-sample-sms", "1", "-verify"}
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	const want = "verification: 6 recommendation(s) re-executed — 1 confirmed, 4 neutral, 1 refuted\n"
	if !strings.Contains(stdout.String(), want) {
		t.Errorf("output lacks %q", want)
	}

	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if _, err := faultinject.Arm(faultinject.Fault{Site: "cupti.collect", Mode: faultinject.ModeError, Times: 1}); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.Contains(out, "fell back to static") || strings.Contains(out, "verification:") {
		t.Errorf("a static fallback printed a verification line or no fallback entry:\n%s", out)
	}
}

// TestTimeoutBoundsVerify: -timeout is split into stage budgets for the
// CLI exactly as for a daemon job, so a verification pass that overruns
// its slice ships the findings unverified with a ledger entry instead of
// running unbounded past the deadline.
func TestTimeoutBoundsVerify(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	// timeout 2s → verify slice 500ms; the armed delay overshoots it.
	if _, err := faultinject.Arm(faultinject.Fault{
		Site: "advisor.verify", Mode: faultinject.ModeDelay, Delay: 700 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "rep.json")
	var stdout bytes.Buffer
	if err := run([]string{"-workload", "histogram_global", "-scale", "4", "-verify",
		"-timeout", "2s", "-json", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "DEGRADED REPORT") {
		t.Error("text report lacks the DEGRADED REPORT banner")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep scout.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Degradations {
		if d.Stage == scout.StageVerify && d.Kind == scout.DegradeTimeout {
			found = true
		}
	}
	if !found {
		t.Errorf("ledger %+v misses a verify/timeout entry", rep.Degradations)
	}
	for _, f := range rep.Findings {
		if f.Verification != nil {
			t.Errorf("finding %s verified despite the verify slice expiring", f.Analysis)
		}
	}
}

// uploadFixtures writes one workload's SASS text, a two-kernel cubin and
// a one-kernel cubin into a temp dir.
func uploadFixtures(t *testing.T) (sassPath, cubinTwo, cubinOne string) {
	t.Helper()
	dir := t.TempDir()
	var kernels []*gpuscout.Kernel
	for _, name := range []string{"transpose_naive", "sgemm_naive"} {
		w, err := gpuscout.BuildWorkload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, w.Kernel)
	}
	sassPath = filepath.Join(dir, "k.sass")
	if err := os.WriteFile(sassPath, []byte(gpuscout.PrintSASS(kernels[0])), 0o644); err != nil {
		t.Fatal(err)
	}
	cubinTwo, cubinOne = filepath.Join(dir, "two.cubin"), filepath.Join(dir, "one.cubin")
	for path, ks := range map[string][]*gpuscout.Kernel{cubinTwo: kernels, cubinOne: kernels[:1]} {
		if err := gpuscout.SaveCubin(path, &gpuscout.Binary{Arch: "sm_70", Kernels: ks}); err != nil {
			t.Fatal(err)
		}
	}
	return sassPath, cubinTwo, cubinOne
}

// TestUploadFlagsRefusedNotDropped: a flag an uploaded-kernel analysis
// cannot honour is an error — the daemon's own message where the daemon
// has the rule — instead of a plain static report with exit status 0.
func TestUploadFlagsRefusedNotDropped(t *testing.T) {
	sassPath, cubinTwo, _ := uploadFixtures(t)
	out := filepath.Join(t.TempDir(), "out.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sass", sassPath, "-verify"}, "verify needs a workload analysis"},
		{[]string{"-cubin", cubinTwo, "-sensitivity"}, "sensitivity needs a workload analysis"},
		{[]string{"-sass", sassPath, "-arch-compare", "sm_80"}, "arch_compare needs a workload analysis"},
		{[]string{"-sass", sassPath, "-kernel", "k"}, "kernel selects a kernel within a cubin"},
		{[]string{"-sass", sassPath, "-workload", "sgemm_naive"}, "exactly one of workload, sass, cubin"},
		{[]string{"-sass", sassPath, "-source-view"}, "need a single workload report"},
		{[]string{"-cubin", cubinTwo, "-region", "3:5"}, "need a single workload report"},
		{[]string{"-sass", sassPath, "-compare", "sgemm_shared"}, "need a single workload report"},
		{[]string{"-workload", "transpose_naive", "-dry-run", "-arch-compare", "sm_80", "-region", "3:5"}, "need a single workload report"},
		{[]string{"-cubin", cubinTwo, "-json", out}, "holds 2 kernels: select one with -kernel"},
		{[]string{"-sass", sassPath, "-verify", "-sensitivity", "-arch-compare", "sm_80", "-json", out, "-source-view", "-region", "3:5"},
			"verify needs a workload analysis"},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed a report before refusing", tc.args)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%v: wrote %s despite refusing", tc.args, out)
		}
	}
}

// TestUploadJSON: -json is honoured for the static report of one uploaded
// kernel, whichever way the one kernel was named.
func TestUploadJSON(t *testing.T) {
	sassPath, cubinTwo, cubinOne := uploadFixtures(t)
	for _, args := range [][]string{
		{"-sass", sassPath},
		{"-cubin", cubinOne},
		{"-cubin", cubinTwo, "-kernel", "_Z9transposePKfPfi"},
	} {
		out := filepath.Join(t.TempDir(), "out.json")
		var stdout bytes.Buffer
		if err := run(append(args, "-json", out), &stdout); err != nil {
			t.Errorf("%v: %v", args, err)
			continue
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Errorf("%v: -json wrote nothing: %v", args, err)
			continue
		}
		var rep scout.Report
		if err := json.Unmarshal(data, &rep); err != nil || rep.Kernel != "_Z9transposePKfPfi" || !rep.DryRun {
			t.Errorf("%v: -json document = kernel %q dry_run %v (%v)", args, rep.Kernel, rep.DryRun, err)
		}
	}
	// Without -json a multi-kernel cubin still reports every kernel.
	var stdout bytes.Buffer
	if err := run([]string{"-cubin", cubinTwo}, &stdout); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(stdout.String(), "GPUscout report — kernel"); n != 2 {
		t.Errorf("two-kernel cubin rendered %d reports, want 2", n)
	}
}

// TestSimDisassemblyParses: `gpuscout sim -disas` prints the kernel's
// SASS up to the first blank line (launch statistics follow), and that
// text is what -sass reads back.
func TestSimDisassemblyParses(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"sim", "-workload", "transpose_naive", "-scale", "32", "-disas"}, &stdout); err != nil {
		t.Fatal(err)
	}
	text, stats, ok := strings.Cut(stdout.String(), "\n\n")
	if !ok || !strings.Contains(stats, "warp stalls (share of stall cycles):") {
		t.Fatalf("no launch statistics after the disassembly:\n%s", stdout.String())
	}
	if _, err := sass.Parse(text); err != nil {
		t.Errorf("sim -disas output does not parse: %v", err)
	}
}

// TestExperimentsSubcommand: -run is checked against the table before
// anything runs, and one experiment prints its artifact.
func TestExperimentsSubcommand(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"experiments", "-run", "nope"}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "valid: all, fig2, fig5,") {
		t.Errorf("-run nope: err = %v, want one naming the valid list", err)
	}
	if stdout.Len() > 0 {
		t.Errorf("-run nope ran something:\n%s", stdout.String())
	}
	if err := run([]string{"experiments", "-run", "fig2", "-fast"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Register spilling") {
		t.Errorf("experiments -run fig2 output lacks \"Register spilling\":\n%s", stdout.String())
	}
}

// TestCLIAndDaemonAgree pins the one lowering: a request spelled as flags
// and the same request posted to a daemon yield the same document, byte
// for byte — for a workload with every pass on, both upload forms, an
// arch comparison and a workload with every flag at its default. The
// answer's report member is the stored document itself, so the two are
// compared raw; only the file's trailing newline is dropped.
func TestCLIAndDaemonAgree(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })

	sassPath, cubinTwo, _ := uploadFixtures(t)
	sassText, err := os.ReadFile(sassPath)
	if err != nil {
		t.Fatal(err)
	}
	cubinBytes, err := os.ReadFile(cubinTwo)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		req  service.AnalyzeRequest
	}{
		{[]string{"-workload", "transpose_shared", "-scale", "64", "-sample-sms", "1", "-verify", "-sensitivity", "-slice"},
			service.AnalyzeRequest{Workload: "transpose_shared", Scale: 64, SampleSMs: 1, Verify: true, Sensitivity: true, StallSlices: true}},
		{[]string{"-sass", sassPath},
			service.AnalyzeRequest{SASS: string(sassText)}},
		{[]string{"-cubin", cubinTwo, "-kernel", "_Z9transposePKfPfi", "-arch", "sm80"},
			service.AnalyzeRequest{Cubin: cubinBytes, Kernel: "_Z9transposePKfPfi", Arch: "sm80"}},
		{[]string{"-workload", "sgemm_shared", "-scale", "64", "-sample-sms", "1", "-arch-compare", "sm80", "-verify"},
			service.AnalyzeRequest{Workload: "sgemm_shared", Scale: 64, SampleSMs: 1, ArchCompare: "sm80", Verify: true}},
		// No -sample-sms: the flag's default is the request's omitted field.
		{[]string{"-workload", "jacobi_naive", "-scale", "256"},
			service.AnalyzeRequest{Workload: "jacobi_naive", Scale: 256}},
	} {
		out := filepath.Join(t.TempDir(), "out.json")
		var stdout bytes.Buffer
		if err := run(append(tc.args, "-json", out), &stdout); err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		fromCLI, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}

		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st service.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.State != service.StateDone {
			t.Fatalf("%v: daemon answered %d, state %q (%v): %s", tc.args, resp.StatusCode, st.State, err, st.Error)
		}
		if !bytes.Equal(bytes.TrimSuffix(fromCLI, []byte("\n")), st.Report) {
			t.Errorf("%v: -json wrote %d bytes, the daemon's report is %d bytes, and they differ", tc.args, len(fromCLI), len(st.Report))
		}
	}
}
