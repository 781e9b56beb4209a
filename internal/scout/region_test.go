package scout

import (
	"math"
	"strings"
	"testing"

	"gpuscout/internal/sim"
)

func TestProfileRegion(t *testing.T) {
	rep := analyzeWorkload(t, "mixbench_sp_naive", 8, Options{Sim: sim.Config{SampleSMs: 1}})

	// The loop body (lines 5-10) must dominate the kernel's stalls.
	loop, err := rep.ProfileRegion(5, 10)
	if err != nil {
		t.Fatalf("ProfileRegion: %v", err)
	}
	if loop.ShareOfKernel < 0.9 {
		t.Errorf("loop region share = %.2f, want > 0.9", loop.ShareOfKernel)
	}
	if loop.MemoryInstructions["global"] != 8 {
		t.Errorf("region global memory instructions = %d, want 8", loop.MemoryInstructions["global"])
	}
	if len(loop.TopStalls) == 0 || loop.TopStalls[0].Stall != sim.StallLongScoreboard {
		t.Errorf("region top stall = %v, want long_scoreboard", loop.TopStalls)
	}
	if loop.IssuedWarpInsts <= 0 {
		t.Error("no issued instructions in region")
	}

	// The epilogue (lines 11-13) is a small share.
	epi, err := rep.ProfileRegion(11, 13)
	if err != nil {
		t.Fatalf("epilogue: %v", err)
	}
	if epi.ShareOfKernel >= loop.ShareOfKernel {
		t.Error("epilogue region out-weighs the loop")
	}
	// Shares are complementary-ish (plus the prologue).
	if s := loop.ShareOfKernel + epi.ShareOfKernel; s > 1.0001 {
		t.Errorf("region shares exceed 1: %v", s)
	}
	if math.IsNaN(loop.StallSamples) {
		t.Error("NaN samples")
	}

	text := loop.Render()
	for _, want := range []string{"Region profile", "lines 5..10", "global=8", "long_scoreboard"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}

	// Errors.
	if _, err := rep.ProfileRegion(10, 5); err == nil {
		t.Error("accepted inverted region")
	}
	if _, err := rep.ProfileRegion(100, 200); err == nil {
		t.Error("accepted empty region")
	}
	dry := analyzeWorkload(t, "mixbench_sp_naive", 4, Options{DryRun: true})
	if _, err := dry.ProfileRegion(5, 10); err == nil {
		t.Error("dry-run region profiling succeeded")
	}
}

// TestProfileRegionDeterministic: profiling one region of one report
// gives bit-identical floats every time (the stall sums do not follow
// map order).
func TestProfileRegionDeterministic(t *testing.T) {
	for _, tc := range []struct {
		workload       string
		scale          int
		fromLine, last int
	}{{"jacobi_naive", 128, 1, 100}, {"mixbench_sp_naive", 8, 5, 10}} {
		rep := analyzeWorkload(t, tc.workload, tc.scale, Options{Sim: sim.Config{SampleSMs: 1}})
		want, err := rep.ProfileRegion(tc.fromLine, tc.last)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		for i := 0; i < 100; i++ {
			got, _ := rep.ProfileRegion(tc.fromLine, tc.last)
			if math.Float64bits(got.StallSamples) != math.Float64bits(want.StallSamples) ||
				math.Float64bits(got.ShareOfKernel) != math.Float64bits(want.ShareOfKernel) ||
				math.Float64bits(got.IssuedWarpInsts) != math.Float64bits(want.IssuedWarpInsts) {
				t.Fatalf("%s call %d: samples %v share %v issued %v, first call %v %v %v", tc.workload, i,
					got.StallSamples, got.ShareOfKernel, got.IssuedWarpInsts, want.StallSamples, want.ShareOfKernel, want.IssuedWarpInsts)
			}
		}
	}
}
