//go:build faultinject

// Chaos suite: drives every workload through every reachable
// fault-injection site and asserts the three pipeline guarantees — the
// process survives, every loss is in the ledger, and a quiet harness
// (nothing armed, or a fault that never fires) yields byte-identical
// reports. Kept behind the faultinject build tag because the sweep is
// deliberately broad; CI runs it via `go test -tags faultinject -run
// Chaos ./...`.
package scout_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// chaosScale picks a small problem size per workload so the full sweep
// stays fast while still reaching every pipeline stage.
func chaosScale(name string) int {
	switch {
	case strings.HasPrefix(name, "jacobi"), strings.HasPrefix(name, "sgemm_shared"):
		return 64 // the tiled sgemm variants need a multiple of their 64-deep K tile
	case strings.HasPrefix(name, "sgemm"), strings.HasPrefix(name, "transpose"):
		return 32
	default:
		return 4
	}
}

// chaosAnalyze runs one workload through the full pipeline with a
// 1-SM sample so the sweep stays cheap.
func chaosAnalyze(t *testing.T, name string, ctx context.Context) ([]byte, error) {
	t.Helper()
	w, err := workloads.Build(name, chaosScale(name))
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	arch, err := gpu.ByName("sm_70")
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), cfg)
	}
	rep, err := scout.AnalyzeContext(ctx, arch, w.Kernel, run,
		scout.Options{Sim: sim.Config{SampleSMs: 1}})
	if err != nil {
		return nil, err
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal %s: %v", name, err)
	}
	return data, nil
}

// chaosSites returns the registered sites reachable from a direct
// workload analysis (the advisor, cubin and service sites belong to
// other harnesses).
func chaosSites() []string {
	var out []string
	for _, s := range faultinject.Sites() {
		if strings.HasPrefix(s, "scout.") || strings.HasPrefix(s, "sim.") ||
			strings.HasPrefix(s, "cupti.") || strings.HasPrefix(s, "ncu.") {
			out = append(out, s)
		}
	}
	return out
}

// TestChaosPanicEverySiteEveryWorkload is the tentpole guarantee: a
// panic injected at any site, for any workload, never kills the process
// and never silently drops data.
func TestChaosPanicEverySiteEveryWorkload(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			faultinject.Reset()
			baseline, err := chaosAnalyze(t, name, context.Background())
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for _, site := range chaosSites() {
				site := site
				t.Run(site, func(t *testing.T) {
					faultinject.Reset()
					disarm, err := faultinject.Arm(faultinject.Fault{
						Site: site, Mode: faultinject.ModePanic, Times: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer disarm()
					data, err := chaosAnalyze(t, name, context.Background())
					if faultinject.Fired(site) == 0 {
						// Unreachable site for this workload: the run must be
						// indistinguishable from the baseline.
						if err != nil {
							t.Fatalf("unfired fault changed the outcome: %v", err)
						}
						if !bytes.Equal(data, baseline) {
							t.Fatal("unfired fault changed the report bytes")
						}
						return
					}
					if site == "scout.parse" {
						// Parse is the one fatal stage: nothing to report on.
						if err == nil {
							t.Fatal("parse panic did not fail the analysis")
						}
						if !scout.TransientError(err) {
							t.Errorf("parse panic not classified transient: %v", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("pipeline abandoned the report: %v", err)
					}
					assertLedger(t, data, site, scout.DegradePanic)
					if strings.HasPrefix(site, "scout.detector.") {
						det := strings.TrimPrefix(site, "scout.detector.")
						if bytes.Contains(data, []byte(`"analysis": "`+det+`"`)) {
							t.Errorf("panicking detector %s left findings behind", det)
						}
					}
					if site == "sim.launch" || site == "cupti.collect" || site == "ncu.collect" {
						if !bytes.Contains(data, []byte(`"dry_run": true`)) {
							t.Error("dynamic-pillar panic did not fall back to a static report")
						}
					}
				})
			}
		})
	}
}

// assertLedger requires at least one degradation entry attributing the
// loss to (site, kind) in the marshaled report.
func assertLedger(t *testing.T, data []byte, site, kind string) {
	t.Helper()
	if !bytes.Contains(data, []byte(`"degradations"`)) {
		t.Fatalf("no ledger in a degraded report (site %s)", site)
	}
	if !bytes.Contains(data, []byte(`"site": "`+site+`"`)) {
		t.Errorf("ledger misses site %s", site)
	}
	if !bytes.Contains(data, []byte(`"kind": "`+kind+`"`)) {
		t.Errorf("ledger misses kind %s for site %s", kind, site)
	}
}

// TestChaosErrorAndDelayModes covers the two other fault modes on one
// representative workload: injected errors degrade with kind "error",
// and a pure delay (no deadline pressure) must not perturb the report at
// all.
func TestChaosErrorAndDelayModes(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	const name = "histogram_shared"
	baseline, err := chaosAnalyze(t, name, context.Background())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	for _, site := range []string{"sim.launch", scout.DetectorSite("shared_atomics"), "scout.correlate"} {
		faultinject.Reset()
		disarm, err := faultinject.Arm(faultinject.Fault{Site: site, Mode: faultinject.ModeError, Times: 1})
		if err != nil {
			t.Fatal(err)
		}
		data, err := chaosAnalyze(t, name, context.Background())
		disarm()
		if err != nil {
			t.Fatalf("error at %s abandoned the report: %v", site, err)
		}
		assertLedger(t, data, site, scout.DegradeError)
	}

	faultinject.Reset()
	disarm, err := faultinject.Arm(faultinject.Fault{
		Site: "sim.launch", Mode: faultinject.ModeDelay, Delay: 20 * time.Millisecond, Times: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := chaosAnalyze(t, name, context.Background())
	disarm()
	if err != nil {
		t.Fatalf("delay with no deadline failed the run: %v", err)
	}
	if !bytes.Equal(data, baseline) {
		t.Error("a pure delay changed the report bytes")
	}
}

// TestChaosQuietHarnessByteIdentity: with nothing armed, repeated runs
// are byte-identical — the fault-injection instrumentation has zero
// observable cost when disarmed.
func TestChaosQuietHarnessByteIdentity(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	for _, name := range []string{"sgemm_naive", "jacobi_texture", "mixbench_sp_vec4"} {
		a, err := chaosAnalyze(t, name, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := chaosAnalyze(t, name, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two quiet runs differ", name)
		}
	}
}
