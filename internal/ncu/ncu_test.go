package ncu

import (
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

func sampleContext(t *testing.T) Context {
	t.Helper()
	w, err := workloads.Build("mixbench_sp_naive", 4)
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(gpu.V100())
	res, err := workloads.Execute(w, dev, sim.Config{SampleSMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Context{Kernel: w.Kernel, Result: res}
}

// allNames lists every registered metric in registry order.
func allNames() []string {
	out := make([]string, 0, len(registry))
	for i := range registry {
		out = append(out, registry[i].Name)
	}
	return out
}

func TestRegistryIntegrity(t *testing.T) {
	names := allNames()
	if len(names) < 30 {
		t.Fatalf("registry has only %d metrics", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate metric %q", n)
		}
		seen[n] = true
		m, ok := Lookup(n)
		if !ok || m.Compute == nil || m.Description == "" || m.Unit == "" {
			t.Errorf("metric %q incomplete", n)
		}
	}
	if _, ok := Lookup("no_such_metric"); ok {
		t.Error("Lookup found a nonexistent metric")
	}
}

func TestMetricValues(t *testing.T) {
	ctx := sampleContext(t)
	// Every metric computes without panicking and percentages stay in
	// range.
	for _, n := range allNames() {
		v, err := Value(n, ctx)
		if err != nil {
			t.Fatalf("Value(%s): %v", n, err)
		}
		if strings.HasSuffix(n, ".pct") && (v < 0 || v > 100.000001) {
			t.Errorf("%s = %v out of [0,100]", n, v)
		}
		if strings.HasSuffix(n, ".sum") && v < 0 {
			t.Errorf("%s = %v negative", n, v)
		}
	}
	// Cross-checks against raw counters.
	v, _ := Value("launch__registers_per_thread", ctx)
	if int(v) != ctx.Kernel.NumRegs {
		t.Errorf("registers metric %v != kernel %d", v, ctx.Kernel.NumRegs)
	}
	ld, _ := Value("smsp__inst_executed_op_global_ld.sum", ctx)
	if want := float64(ctx.Result.Counters.GlobalLdInsts) * ctx.Result.Scale; ld != want {
		t.Errorf("global ld metric %v != scaled counter %v", ld, want)
	}
	// Stall percentages sum to <= 100 plus selected/active bookkeeping.
	var stallSum float64
	for _, n := range allNames() {
		if strings.Contains(n, "warp_issue_stalled") {
			v, _ := Value(n, ctx)
			stallSum += v
		}
	}
	if stallSum <= 0 || stallSum > 100.01 {
		t.Errorf("stall percentages sum to %v", stallSum)
	}
}

func TestCollector(t *testing.T) {
	ctx := sampleContext(t)
	col := Collector{Arch: gpu.V100()}
	names := []string{
		"gpu__time_duration.sum",
		"launch__registers_per_thread",
		"dram__bytes_read.sum",
		"dram__bytes_read.sum", // duplicate: must not double-count passes
	}
	ms, err := col.Collect(ctx, names)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(ms.Values) != 3 {
		t.Errorf("collected %d values, want 3", len(ms.Values))
	}
	if ms.Passes != 1 {
		t.Errorf("passes = %d, want 1 for 3 metrics", ms.Passes)
	}
	if ms.OverheadCycles <= ctx.Result.Cycles {
		t.Error("collection overhead below one kernel replay")
	}
	// More metrics -> more passes -> more overhead.
	msAll, err := col.Collect(ctx, allNames())
	if err != nil {
		t.Fatal(err)
	}
	if msAll.Passes <= ms.Passes || msAll.OverheadCycles <= ms.OverheadCycles {
		t.Error("overhead does not grow with metric count")
	}
	if got, ok := ms.Get("launch__registers_per_thread"); !ok || int(got) != ctx.Kernel.NumRegs {
		t.Errorf("Get = %v, %t", got, ok)
	}
	if names := ms.SortedNames(); len(names) != 3 || names[0] > names[1] {
		t.Errorf("SortedNames = %v", names)
	}
}

func TestCollectorErrors(t *testing.T) {
	ctx := sampleContext(t)
	col := Collector{Arch: gpu.V100()}
	if _, err := col.Collect(ctx, nil); err == nil {
		t.Error("accepted empty metric list")
	}
	if _, err := col.Collect(ctx, []string{"bogus"}); err == nil {
		t.Error("accepted unknown metric")
	}
	// Pascal is unsupported by ncu (§3.1): collection must refuse,
	// pointing the user at --dry-run.
	pascal := Collector{Arch: gpu.P100()}
	_, err := pascal.Collect(ctx, []string{"gpu__time_duration.sum"})
	if err == nil || !strings.Contains(err.Error(), "dry-run") {
		t.Errorf("Pascal collection error = %v, want dry-run hint", err)
	}
	var ms MetricSet
	if _, ok := ms.Get("missing"); ok {
		t.Error("Get found a metric that was never collected")
	}
}
