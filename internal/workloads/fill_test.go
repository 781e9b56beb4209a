package workloads

import (
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sim"
)

// inputPages is how many 4 KiB pages an input of n bytes spans.
func inputPages(n int) int { return (n + 4095) / 4096 }

// filledPages runs name@scale on a fresh device under a two-SM sample, the
// daemon benchmark's, and returns the input pages the launch filled.
func filledPages(t *testing.T, name string, scale int) int {
	t.Helper()
	w, err := Build(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(w, sim.NewDevice(gpu.V100()), sim.Config{SampleSMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Host.FilledPages
}

// TestSampledLaunchFillsItsSample: a two-SM sample of mixbench runs 16
// of 640 blocks, so its launch fills at most 5 % of the 5 MiB input —
// the rest is never written, by Prepare or anyone else.
func TestSampledLaunchFillsItsSample(t *testing.T) {
	in := inputPages(4 * mixBlock * mixBlocks * mixGranularity)
	got := filledPages(t, "mixbench_sp_naive", 1)
	if got == 0 || got*20 > in {
		t.Errorf("mixbench_sp_naive: launch filled %d of %d input pages, want 1..%d", got, in, in/20)
	}
	t.Logf("mixbench_sp_naive: %d of %d input pages filled", got, in)
}

// TestSampledLaunchesFillLessThanTheirInput: three other access patterns
// — strided rows (histogram), per-thread slabs (spill), a stencil with
// halos (jacobi) — each fill strictly fewer pages than their input spans
// at the daemon benchmark's scale.
func TestSampledLaunchesFillLessThanTheirInput(t *testing.T) {
	for _, tc := range []struct {
		name         string
		scale, bytes int
	}{
		{"histogram_global", 4, 4 * histBlock * histBlocks * 4},
		{"spill_pressure", 8, 4 * spillBlock * spillBlocks * spillValues},
		{"jacobi_naive", 256, 4 * 256 * 256},
	} {
		in := inputPages(tc.bytes)
		got := filledPages(t, tc.name, tc.scale)
		if got == 0 || got >= in {
			t.Errorf("%s@%d: launch filled %d of %d input pages, want 1..%d", tc.name, tc.scale, got, in, in-1)
		}
		t.Logf("%s@%d: %d of %d input pages filled", tc.name, tc.scale, got, in)
	}
}
