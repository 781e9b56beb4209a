package scout_test

import (
	"bytes"
	"context"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/scout"
	"gpuscout/internal/sim"
	"gpuscout/internal/workloads"
)

// TestReportBytesDeterministic: recomputing an analysis yields the same
// report bytes every time. jacobi_naive's findings each correlate stalls
// over several source lines, which is where a sum in map order used to
// move relevant_stall_share (and the est_speedup derived from it) in the
// last ulp — at this scale in about one recomputation in five.
func TestReportBytesDeterministic(t *testing.T) {
	arch := gpu.V100()
	w, err := workloads.BuildArch("jacobi_naive", 256, arch)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	run := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		return workloads.ExecuteContext(ctx, w, sim.NewDevice(arch), c)
	}
	var first []byte
	for i := 0; i < 25; i++ {
		rep, err := scout.AnalyzeContext(context.Background(), arch, w.Kernel, run,
			scout.Options{Sim: sim.Config{SampleSMs: 2}})
		if err != nil {
			t.Fatalf("analyze %d: %v", i, err)
		}
		data, err := rep.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %d: %v", i, err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("analysis %d marshals differently from analysis 0", i)
		}
	}
}
